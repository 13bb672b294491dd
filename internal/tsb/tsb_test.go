package tsb

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	b := MustNew(cfg)
	if len(b.slots) != (16<<20)/16 {
		t.Errorf("slots = %d", len(b.slots))
	}
}

func TestValidate(t *testing.T) {
	if (Config{SizeBytes: 8}).Validate() == nil {
		t.Error("tiny TSB should be invalid")
	}
	if (Config{SizeBytes: 1 << 20, BaseAddr: 7}).Validate() == nil {
		t.Error("unaligned base should be invalid")
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
}

func TestDirectMappedConflict(t *testing.T) {
	b := MustNew(DefaultConfig())
	stride := uint64(len(b.slots)) // same slot
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
	for _, e := range t.slots {
		if e.valid {
			n++
		}
	}
	return n
}
