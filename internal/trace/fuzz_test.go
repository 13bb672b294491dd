package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/addr"
)

// FuzzRecordCodec fuzzes the 16-byte record packing: a record with a
// canonical address (below 2^48) survives a Writer→Reader round trip in
// every field (page size collapses to the two sizes the format encodes);
// any other address gets ErrNonCanonical from the Writer, which writes
// nothing, and from the Reader, which yields no record.
func FuzzRecordCodec(f *testing.F) {
	f.Add(uint64(0), uint32(0), false, uint8(0), false)
	f.Add(uint64(1)<<47, uint32(1<<31), true, uint8(255), true)
	f.Add(uint64(0xdead_beef_f000), uint32(17), true, uint8(3), false)
	f.Add(uint64(1)<<48-1, uint32(1), false, uint8(0), false)
	f.Add(uint64(0x1_0010_0000_1000), uint32(0), false, uint8(0), false)
	f.Fuzz(func(t *testing.T, va uint64, gap uint32, write bool, thread uint8, large bool) {
		size := addr.Page4K
		if large {
			size = addr.Page2M
		}
		rec := Record{VA: addr.VA(va), Gap: gap, Write: write, Thread: thread, Size: size}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		werr := w.Write(rec)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if va>>addr.VABits != 0 {
			if !errors.Is(werr, ErrNonCanonical) {
				t.Fatalf("Write(%#x) = %v, want ErrNonCanonical", va, werr)
			}
			if buf.Len() != len(magic) || w.Count() != 0 {
				t.Fatalf("refused record still wrote %d bytes", buf.Len()-len(magic))
			}
			raw := binary.LittleEndian.AppendUint64(append([]byte(nil), magic[:]...), va)
			r, err := NewReader(bytes.NewReader(append(raw, make([]byte, recordBytes-8)...)))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := r.Read(); !errors.Is(err, ErrNonCanonical) {
				t.Fatalf("Read of VA %#x = %+v, %v, want ErrNonCanonical", va, got, err)
			}
			return
		}
		if werr != nil {
			t.Fatal(werr)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got != rec {
			t.Fatalf("round trip: %+v -> %+v", rec, got)
		}
		if _, err := r.Read(); err != io.EOF {
			t.Fatalf("trailing read = %v, want EOF", err)
		}
	})
}

// FuzzReader fuzzes the binary trace reader against arbitrary byte
// streams: it must never panic, must reject non-magic headers with
// ErrBadMagic and short headers with ErrTruncated, and on a valid header
// must hand back only whole canonical records followed by io.EOF (clean
// end), ErrTruncated (torn tail) or, at the first record addressing 2^48
// or above, ErrNonCanonical — truncated trailing bytes must never surface
// as a phantom record, nor a non-canonical address as an aliased one.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("POMTRC01"))
	f.Add([]byte("POMTRC99extra"))
	valid := append([]byte("POMTRC01"), make([]byte, 2*recordBytes)...)
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), 1, 2, 3)) // truncated third record
	nonCanonical := append([]byte{}, valid...)
	nonCanonical[8+recordBytes+6] = 1 // second record's VA has bit 48 set
	f.Add(nonCanonical)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			switch {
			case len(data) < 8:
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("short header: error %v, want ErrTruncated", err)
				}
			case bytes.Equal(data[:8], magic[:]):
				t.Fatalf("valid header rejected: %v", err)
			default:
				if !errors.Is(err, ErrBadMagic) {
					t.Fatalf("bad header: error %v, want ErrBadMagic", err)
				}
			}
			return
		}
		if len(data) < 8 || !bytes.Equal(data[:8], magic[:]) {
			t.Fatal("bad header accepted")
		}
		// The model: whole records up to the first non-canonical one.
		payload := data[8:]
		want, stop := len(payload)/recordBytes, error(nil)
		for i := 0; i < len(payload)/recordBytes; i++ {
			if binary.LittleEndian.Uint64(payload[i*recordBytes:])>>addr.VABits != 0 {
				want, stop = i, ErrNonCanonical
				break
			}
		}
		if stop == nil {
			stop = io.EOF
			if len(payload)%recordBytes != 0 {
				stop = ErrTruncated
			}
		}
		n := 0
		for {
			rec, err := r.Read()
			if err == nil {
				n++
				if n > len(data) { // cannot yield more records than bytes
					t.Fatal("reader yields records forever")
				}
				if uint64(rec.VA)>>addr.VABits != 0 {
					t.Fatalf("record %d carries non-canonical VA %#x", n-1, rec.VA)
				}
				continue
			}
			if !errors.Is(err, stop) {
				t.Fatalf("stream end after %d records: error %v, want %v", n, err, stop)
			}
			break
		}
		if n != want {
			t.Fatalf("decoded %d records from %d payload bytes, want %d", n, len(payload), want)
		}
	})
}
