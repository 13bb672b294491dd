// Package trace defines the memory-reference trace schema the simulator
// consumes and provides both a binary file format and the synthetic
// generators that stand in for the paper's PIN + pagemap traces.
//
// The record schema mirrors Section 3.2: virtual address, instruction
// count between memory references (so memory-level parallelism and issue
// cadence can be scheduled as in Ramulator), read/write flag, thread ID and
// page size. The paper captured these from real SPEC/PARSEC/graph runs; we
// synthesize streams with the same footprint, locality class, thread count
// and large-page fraction per benchmark (see the workloads package), which
// are the properties that determine TLB, cache and DRAM behaviour.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/addr"
)

// Sentinel errors let callers distinguish a stream that was never a trace
// from one that was cut off mid-record — the server maps the former to a
// client error (400) and the latter to a torn upload (422), and the CLIs
// print matching hints.
var (
	// ErrBadMagic marks a stream whose first 8 bytes are not the trace
	// magic: the payload is not a POMTRC01 trace at all.
	ErrBadMagic = errors.New("trace: bad magic")
	// ErrTruncated marks a stream that ends mid-header or mid-record: the
	// trace was valid up to the tear, but bytes are missing.
	ErrTruncated = errors.New("trace: truncated stream")
	// ErrNonCanonical marks a record whose virtual address is 2^48 or
	// above. The page tables translate 48 bits, so such an address would
	// silently alias its canonical twin.
	ErrNonCanonical = errors.New("trace: non-canonical virtual address")
)

// checkVA reports ErrNonCanonical for an address outside [0, 2^48).
func checkVA(va addr.VA) error {
	if uint64(va)>>addr.VABits != 0 {
		return fmt.Errorf("%w %#x", ErrNonCanonical, uint64(va))
	}
	return nil
}

// Record is one memory reference.
type Record struct {
	// VA is the guest virtual address referenced.
	VA addr.VA
	// Gap is the number of non-memory instructions executed on this
	// thread since its previous memory reference.
	Gap uint32
	// Write is true for stores.
	Write bool
	// Thread identifies the issuing thread (maps to a core).
	Thread uint8
	// Size is the OS-chosen page size backing the address (from the
	// pagemap in the paper's traces; from the region layout here).
	Size addr.PageSize
}

// Binary format: 8-byte magic+version header, little-endian u64 record
// count, then 16 bytes per record.
var magic = [8]byte{'P', 'O', 'M', 'T', 'R', 'C', '0', '1'}

const recordBytes = 16

// Writer streams records to a binary trace file.
type Writer struct {
	w     *bufio.Writer
	count uint64
	buf   [recordBytes]byte
}

// NewWriter writes the header and returns a Writer. Close must be called
// to flush; the record count is carried in each record stream's trailer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record; a non-canonical address is refused with
// ErrNonCanonical and nothing is written.
func (w *Writer) Write(r Record) error {
	if err := checkVA(r.VA); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(w.buf[0:8], uint64(r.VA))
	binary.LittleEndian.PutUint32(w.buf[8:12], r.Gap)
	var flags byte
	if r.Write {
		flags |= 1
	}
	if r.Size == addr.Page2M {
		flags |= 2
	}
	w.buf[12] = flags
	w.buf[13] = r.Thread
	w.buf[14], w.buf[15] = 0, 0
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	w.count++
	return nil
}

// Count returns how many records have been written.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams records from a binary trace file.
type Reader struct {
	r   *bufio.Reader
	buf [recordBytes]byte
}

// NewReader validates the header and returns a Reader. A stream shorter
// than the header wraps ErrTruncated; a full-length header that is not the
// trace magic wraps ErrBadMagic.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if n, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: %d-byte header, want %d", ErrTruncated, n, len(hdr))
		}
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("%w: %q, want %q", ErrBadMagic, hdr, magic)
	}
	return &Reader{r: br}, nil
}

// Read returns the next record, io.EOF at a clean end of stream, an
// error wrapping ErrTruncated when the stream tears mid-record, or one
// wrapping ErrNonCanonical for a record whose address is 2^48 or above.
func (r *Reader) Read() (Record, error) {
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: stream ends mid-record", ErrTruncated)
		}
		return Record{}, err
	}
	va := addr.VA(binary.LittleEndian.Uint64(r.buf[0:8]))
	if err := checkVA(va); err != nil {
		return Record{}, err
	}
	flags := r.buf[12]
	size := addr.Page4K
	if flags&2 != 0 {
		size = addr.Page2M
	}
	return Record{
		VA:     va,
		Gap:    binary.LittleEndian.Uint32(r.buf[8:12]),
		Write:  flags&1 != 0,
		Thread: r.buf[13],
		Size:   size,
	}, nil
}

// Generator produces an endless, deterministic reference stream.
type Generator interface {
	// Next returns the next record.
	Next() Record
	// Fill writes the stream's next records to a prefix of buf and
	// returns its length: all of buf for a synthetic stream or a replay,
	// at least one record for a live stream, which blocks only while
	// nothing has arrived. It never returns 0 for a non-empty buf.
	Fill(buf []Record) int
}

// Batch is the unit of record supply: the records the core scheduler
// pulls per Fill, a consolidation generator fills per segment, and the
// server's ingest loop gathers before it takes the rate limiter and a
// session's queue. One size throughout hands a live session's upload
// batch to the scheduler under one stream lock.
const Batch = 256

// Collect drains n records from a generator into a slice.
func Collect(g Generator, n int) []Record {
	out := make([]Record, n)
	for i := 0; i < n; {
		i += g.Fill(out[i:])
	}
	return out
}

// WriteAll generates n records into w.
func WriteAll(w *Writer, g Generator, n int) error {
	for i := 0; i < n; i++ {
		if err := w.Write(g.Next()); err != nil {
			return err
		}
	}
	return w.Flush()
}
