package tsb

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/addr"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Slot storage follows what is written: a fresh buffer holds no
	// chunk, and one insert allocates one 4 KiB chunk of 256 slots.
	b := MustNew(cfg)
	if n := chunkBytes(b); n != 0 {
		t.Errorf("fresh TSB holds %d bytes of slot chunks, want 0", n)
	}
	b.Insert(1, 1, 42, 7, addr.Page4K)
	if n := chunkBytes(b); n != 4096 {
		t.Errorf("one insert allocated %d bytes of slot chunks, want 4096", n)
	}
}

// chunkBytes returns the host bytes b's written slot chunks hold.
func chunkBytes(b *TSB) uint64 {
	n := uint64(0)
	for _, c := range b.chunks {
		n += uint64(len(c)) * uint64(unsafe.Sizeof(c[0]))
	}
	return n
}

// TestUnwrittenSlotsReadWithoutAllocating pins that only Insert writes a
// chunk: lookups, peeks and invalidations of slots no insert reached
// miss, allocate nothing and leave the buffer without a chunk.
func TestUnwrittenSlotsReadWithoutAllocating(t *testing.T) {
	b := MustNew(DefaultConfig())
	va := addr.VA(0x7f00_1234_5000)
	vpn := va.VPN(addr.Page4K)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := b.Lookup(1, 1, va, addr.Page4K); ok || b.Peek(1, 1, vpn, addr.Page4K) {
			t.Error("lookup of an unwritten slot hit")
		}
		if b.InvalidatePage(1, 1, vpn, addr.Page4K) || b.InvalidateProcess(1, 1) != 0 {
			t.Error("invalidation of an unwritten slot found an entry")
		}
	})
	if allocs != 0 {
		t.Errorf("reads of unwritten slots allocated %.1f times per run, want 0", allocs)
	}
	if n := chunkBytes(b); n != 0 {
		t.Errorf("reads wrote %d bytes of slot chunks, want 0", n)
	}
	// A buffer of fewer than 256 slots has one chunk of its own size.
	small := MustNew(Config{SizeBytes: 64 * EntryBytes})
	small.Insert(1, 1, 3, 1, addr.Page4K)
	if len(small.chunks) != 1 || len(small.chunks[0]) != 64 {
		t.Errorf("64-slot TSB: %d chunks, the first of %d slots; want one of 64", len(small.chunks), len(small.chunks[0]))
	}
}

// TestChunksMatchFlatModel runs random operations against a flat slot
// array with the direct-mapped semantics, across written and unwritten
// chunks: inserts land in three narrow VPN ranges, so most chunks stay
// unwritten while lookups and invalidations reach every chunk. Every
// outcome, the conflict count and, at the end, every slot must agree.
func TestChunksMatchFlatModel(t *testing.T) {
	b := MustNew(Config{SizeBytes: 1 << 20})
	flat := make([][2]uint64, b.mask+1)
	var conflicts, held uint64
	rng := rand.New(rand.NewSource(11))
	// Each range covers 1024 slots (4 chunks) of the 65536.
	bases := []uint64{0x1000, 0x9_8000, 0x5_0000_c000}
	narrow := func() uint64 { return bases[rng.Intn(len(bases))] + uint64(rng.Intn(1024)) }
	for i := 0; i < 200_000; i++ {
		vm, pid := addr.VMID(rng.Intn(2)), addr.PID(rng.Intn(2))
		size := addr.Page4K
		if rng.Intn(4) == 0 {
			size = addr.Page2M
		}
		vpn := narrow()
		if rng.Intn(2) == 0 {
			vpn = uint64(rng.Int63n(1 << (vpnBits - 9)))
		}
		s := &flat[(vpn^uint64(vm))&b.mask]
		h := holds(*s, vm, pid, vpn, size)
		if h {
			held++
		}
		switch op := rng.Intn(1000); {
		case op < 400:
			pfn, ok := b.Lookup(vm, pid, addr.VA(vpn<<size.Shift()), size)
			if ok != h || ok && pfn != s[1]&pfnMask {
				t.Fatalf("op %d: lookup vm %d pid %d vpn %#x = %#x, %v; model holds %v", i, vm, pid, vpn, pfn, ok, h)
			}
			if b.Peek(vm, pid, vpn, size) != h {
				t.Fatalf("op %d: peek disagrees with the model", i)
			}
		case op < 600:
			if b.InvalidatePage(vm, pid, vpn, size) != h {
				t.Fatalf("op %d: invalidate vm %d pid %d vpn %#x disagrees with the model", i, vm, pid, vpn)
			}
			if h {
				*s = [2]uint64{}
			}
		case op < 999:
			vpn = narrow()
			s = &flat[(vpn^uint64(vm))&b.mask]
			pfn := uint64(rng.Int63n(1 << pfnBits))
			if s[0]&validBit != 0 {
				conflicts++
			}
			*s = [2]uint64{tag(vm, vpn, size), uint64(pid)<<pidShift | pfn}
			b.Insert(vm, pid, vpn, pfn, size)
		default:
			n := 0
			for j := range flat {
				if flat[j][0]&ownerMask == validBit|uint64(vm)<<vmShift && flat[j][1]>>pidShift == uint64(pid) {
					flat[j] = [2]uint64{}
					n++
				}
			}
			if got := b.InvalidateProcess(vm, pid); got != n {
				t.Fatalf("op %d: process invalidation removed %d, model %d", i, got, n)
			}
		}
	}
	if b.Conflicts != conflicts {
		t.Errorf("conflicts = %d, model %d", b.Conflicts, conflicts)
	}
	if held < 1000 {
		t.Errorf("only %d probes found their translation: the test barely reaches written slots", held)
	}
	for i := range flat {
		if got := b.slot(uint64(i)); got != flat[i] {
			t.Fatalf("slot %d = %#x, model %#x", i, got, flat[i])
		}
	}
	if written := chunkBytes(b); written*2 > b.cfg.SizeBytes {
		t.Errorf("%d of %d bytes written: the narrow ranges should leave most chunks unwritten", written, b.cfg.SizeBytes)
	}
}

func TestValidate(t *testing.T) {
	if (Config{SizeBytes: 8}).Validate() == nil {
		t.Error("tiny TSB should be invalid")
	}
	if (Config{SizeBytes: 1 << 20, BaseAddr: 7}).Validate() == nil {
		t.Error("unaligned base should be invalid")
	}
	// New allocates the whole buffer, so a size past the limit is
	// refused before anything allocates it.
	if err := (Config{SizeBytes: maxSizeBytes}).Validate(); err != nil {
		t.Errorf("TSB at the size limit: %v", err)
	}
	if (Config{SizeBytes: 1 << 40}).Validate() == nil {
		t.Error("1 TiB TSB should be invalid")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestLookupInsert(t *testing.T) {
	b := MustNew(DefaultConfig())
	va := addr.VA(0x7f00_1234_5000)
	if _, ok := b.Lookup(1, 1, va, addr.Page4K); ok {
		t.Error("cold lookup should miss")
	}
	b.Insert(1, 1, va.VPN(addr.Page4K), 0x42, addr.Page4K)
	pfn, ok := b.Lookup(1, 1, va, addr.Page4K)
	if !ok || pfn != 0x42 {
		t.Errorf("lookup = %#x, %v", pfn, ok)
	}
	if count(b) != 1 {
		t.Errorf("count = %d", count(b))
	}
}

func TestIsolation(t *testing.T) {
	b := MustNew(DefaultConfig())
	va := addr.VA(0x1000)
	b.Insert(1, 1, va.VPN(addr.Page4K), 0x42, addr.Page4K)
	if _, ok := b.Lookup(1, 2, va, addr.Page4K); ok {
		t.Error("other PID should miss")
	}
	if _, ok := b.Lookup(1, 1, va, addr.Page2M); ok {
		t.Error("other size should miss")
	}
	// The widest values each TTE field holds stay apart: the highest
	// canonical page of the highest VM and process, at the widest PFN.
	const vpn, pfn = 1<<vpnBits - 1, 1<<pfnBits - 1
	b.Insert(0xFFFF, 0xFFFF, vpn, pfn, addr.Page4K)
	top := addr.VA(uint64(vpn) << addr.Shift4K)
	if got, ok := b.Lookup(0xFFFF, 0xFFFF, top, addr.Page4K); !ok || got != pfn {
		t.Errorf("widest entry lookup = %#x, %v, want %#x", got, ok, uint64(pfn))
	}
	if b.Peek(0xFFFF, 0xFFFE, vpn, addr.Page4K) || b.Peek(0xFFFF, 0xFFFF, vpn, addr.Page2M) {
		t.Error("widest entry matches another process or page size")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	b := MustNew(DefaultConfig())
	stride := b.mask + 1 // same slot
	b.Insert(1, 1, 5, 1, addr.Page4K)
	b.Insert(1, 1, 5+stride, 2, addr.Page4K)
	if b.Conflicts != 1 {
		t.Errorf("conflicts = %d", b.Conflicts)
	}
	if _, ok := b.Lookup(1, 1, addr.VA(5<<12), addr.Page4K); ok {
		t.Error("displaced entry should miss — direct-mapped has no ways")
	}
	if pfn, ok := b.Lookup(1, 1, addr.VA((5+stride)<<12), addr.Page4K); !ok || pfn != 2 {
		t.Error("displacing entry should hit")
	}
}

func TestEntryAddrInBuffer(t *testing.T) {
	b := MustNew(DefaultConfig())
	for _, va := range []addr.VA{0, 0x1000, 0xdead_beef_0000} {
		for _, s := range []addr.PageSize{addr.Page4K, addr.Page2M} {
			a := uint64(b.EntryAddr(1, va, s))
			if a < b.cfg.BaseAddr || a >= b.cfg.BaseAddr+b.cfg.SizeBytes {
				t.Errorf("EntryAddr(%v, %v) = %#x outside buffer", va, s, a)
			}
			if a%EntryBytes != 0 {
				t.Errorf("EntryAddr %#x not entry aligned", a)
			}
		}
	}
}

func TestInvalidatePage(t *testing.T) {
	b := MustNew(DefaultConfig())
	b.Insert(1, 1, 9, 1, addr.Page4K)
	if !b.InvalidatePage(1, 1, 9, addr.Page4K) {
		t.Error("invalidate should succeed")
	}
	if b.InvalidatePage(1, 1, 9, addr.Page4K) {
		t.Error("double invalidate should fail")
	}
	if count(b) != 0 {
		t.Errorf("count = %d", count(b))
	}
}

func TestStats(t *testing.T) {
	b := MustNew(DefaultConfig())
	b.Lookup(1, 1, 0x1000, addr.Page4K)
	b.Insert(1, 1, 1, 1, addr.Page4K)
	b.Lookup(1, 1, 0x1000, addr.Page4K)
	s := b.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// Property: insert-then-lookup roundtrips.
func TestInsertLookupProperty(t *testing.T) {
	b := MustNew(DefaultConfig())
	f := func(raw uint64, pfn uint32, vm, pid uint8, large bool) bool {
		size := addr.Page4K
		if large {
			size = addr.Page2M
		}
		va := addr.VA(raw & (1<<48 - 1))
		b.Insert(addr.VMID(vm), addr.PID(pid), va.VPN(size), uint64(pfn), size)
		got, ok := b.Lookup(addr.VMID(vm), addr.PID(pid), va, size)
		return ok && got == uint64(pfn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidateProcess(t *testing.T) {
	b := MustNew(DefaultConfig())
	b.Insert(1, 1, 1, 1, addr.Page4K)
	b.Insert(1, 2, 2, 2, addr.Page4K)
	if n := b.InvalidateProcess(1, 1); n != 1 {
		t.Errorf("removed %d, want 1", n)
	}
	if count(b) != 1 {
		t.Errorf("count = %d", count(b))
	}
}

// count returns the number of live entries in t.
func count(t *TSB) int {
	n := 0
	for _, c := range t.chunks {
		for _, s := range c {
			if s[0]&validBit != 0 {
				n++
			}
		}
	}
	return n
}

// TestInsertRejectsWideFields pins that a VPN or PFN too wide for its
// TTE field panics instead of aliasing another page.
func TestInsertRejectsWideFields(t *testing.T) {
	b := MustNew(DefaultConfig())
	for name, insert := range map[string]func(){
		"vpn": func() { b.Insert(1, 1, 1<<vpnBits, 1, addr.Page4K) },
		"pfn": func() { b.Insert(1, 1, 1, 1<<pfnBits, addr.Page4K) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: too-wide field inserted without a panic", name)
				}
			}()
			insert()
		}()
	}
	if count(b) != 0 {
		t.Errorf("count = %d after rejected inserts", count(b))
	}
}
