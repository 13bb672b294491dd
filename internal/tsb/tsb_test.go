package tsb

import (
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
	// Each 16-byte slot costs 16 host bytes: the buffer's storage is
	// exactly SizeBytes.
	b := MustNew(cfg)
	if got := uint64(cap(b.slots)) * uint64(unsafe.Sizeof(b.slots[0])); got != cfg.SizeBytes {
		t.Errorf("slot storage = %d bytes, want SizeBytes = %d", got, cfg.SizeBytes)
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
	for _, s := range t.slots {
		if s[0]&validBit != 0 {
			n++
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
