package pagetable

import (
	"testing"

	"repro/internal/addr"
)

// twoD builds a guest table (nodes in GPA space) and a host table (nodes in
// HPA space) with a single guest mapping, with every guest node frame and
// the data frame EPT-mapped 4 KB→4 KB.
func twoD(t *testing.T, va uint64, gsize addr.PageSize) (guest, host *Table) {
	t.Helper()
	guest = New(bump(0x100_0000)) // guest node GPAs
	host = New(bump(0x900_0000))  // host node HPAs

	gpfn := uint64(0x500)
	nodes, err := guest.Map(va, gpfn, gsize)
	if err != nil {
		t.Fatal(err)
	}
	// EPT-map guest node frames and the data frame, 4 KB granularity.
	hpfn := uint64(0x7000)
	for _, n := range nodes {
		if _, err := host.Map(n, hpfn, addr.Page4K); err != nil {
			t.Fatal(err)
		}
		hpfn++
	}
	for off := uint64(0); off < gsize.Bytes(); off += addr.Bytes4K {
		gp := gpfn<<gsize.Shift() + off
		if _, err := host.Map(gp, hpfn, addr.Page4K); err != nil {
			t.Fatal(err)
		}
		hpfn++
	}
	return guest, host
}

func flatMem(latency uint64) (MemFunc, *int) {
	count := new(int)
	return func(a addr.HPA, write bool) uint64 {
		*count++
		return latency
	}, count
}

func TestCold2DWalkIs24Refs(t *testing.T) {
	guest, host := twoD(t, 0x7f00_0000_1000, addr.Page4K)
	mem, count := flatMem(100)
	w := NewWalker(DefaultWalkerConfig(), mem)

	res := w.Translate2D(guest, host, 1, 1, 0x7f00_0000_1000)
	if !res.OK {
		t.Fatal("translation failed")
	}
	// Figure 1: 4 guest levels × (4 host refs + 1 guest PTE read) + 4 host
	// refs for the final data GPA = 24 references, nothing cached.
	if res.Refs != 24 {
		t.Errorf("cold 2D refs = %d, want 24", res.Refs)
	}
	if *count != 24 {
		t.Errorf("mem accesses = %d, want 24", *count)
	}
	if res.Size != addr.Page4K {
		t.Errorf("size = %v", res.Size)
	}
	if res.Latency < 2400 {
		t.Errorf("latency = %d, should include 24 × 100-cycle refs", res.Latency)
	}
}

func TestCold2DWalk2MFewerRefs(t *testing.T) {
	guest, host := twoD(t, 0x4000_0000, addr.Page2M)
	mem, _ := flatMem(100)
	w := NewWalker(DefaultWalkerConfig(), mem)
	res := w.Translate2D(guest, host, 1, 1, 0x4000_0000)
	if !res.OK {
		t.Fatal("translation failed")
	}
	// 3 guest levels × (4 + 1) + 4 = 19 refs.
	if res.Refs != 19 {
		t.Errorf("cold 2M 2D refs = %d, want 19", res.Refs)
	}
	if res.Size != addr.Page2M {
		t.Errorf("size = %v", res.Size)
	}
}

func TestWarm2DWalkIsOneRef(t *testing.T) {
	guest, host := twoD(t, 0x7f00_0000_1000, addr.Page4K)
	mem, _ := flatMem(100)
	w := NewWalker(DefaultWalkerConfig(), mem)
	w.Translate2D(guest, host, 1, 1, 0x7f00_0000_1000)

	// Second walk of a neighbouring page: PDE PSC supplies the PT node,
	// nested TLB supplies both host translations → 1 guest PTE read.
	res := w.Translate2D(guest, host, 1, 1, 0x7f00_0000_1000)
	if !res.OK {
		t.Fatal("translation failed")
	}
	if res.Refs != 1 {
		t.Errorf("warm 2D refs = %d, want 1", res.Refs)
	}
	if w.Stats().PSCSkips == 0 {
		t.Error("expected PSC skips on the warm walk")
	}
}

func TestWarm2DCorrectTranslation(t *testing.T) {
	guest, host := twoD(t, 0x7f00_0000_1000, addr.Page4K)
	mem, _ := flatMem(1)
	w := NewWalker(DefaultWalkerConfig(), mem)
	cold := w.Translate2D(guest, host, 1, 1, 0x7f00_0000_1000)
	warm := w.Translate2D(guest, host, 1, 1, 0x7f00_0000_1000)
	if cold.HPFN != warm.HPFN || cold.Size != warm.Size {
		t.Errorf("warm result %+v differs from cold %+v", warm, cold)
	}
	if warm.Latency >= cold.Latency {
		t.Errorf("warm walk (%d cyc) should be cheaper than cold (%d cyc)", warm.Latency, cold.Latency)
	}
}

func TestTranslate2DFault(t *testing.T) {
	guest, host := twoD(t, 0x7f00_0000_1000, addr.Page4K)
	mem, _ := flatMem(1)
	w := NewWalker(DefaultWalkerConfig(), mem)
	res := w.Translate2D(guest, host, 1, 1, 0xdead_0000_0000)
	if res.OK {
		t.Error("unmapped VA should fault")
	}
	if w.Stats().Faults != 1 {
		t.Errorf("faults = %d", w.Stats().Faults)
	}
}

func TestVMIsolationInWalkerCaches(t *testing.T) {
	guest, host := twoD(t, 0x7f00_0000_1000, addr.Page4K)
	mem, _ := flatMem(1)
	w := NewWalker(DefaultWalkerConfig(), mem)
	w.Translate2D(guest, host, 1, 1, 0x7f00_0000_1000)
	// Same tables, different VM: PSC and nested TLB must not leak, so the
	// walk costs full refs again.
	res := w.Translate2D(guest, host, 2, 1, 0x7f00_0000_1000)
	if res.Refs != 24 {
		t.Errorf("cross-VM walk refs = %d, want 24 (no leakage)", res.Refs)
	}
}

func TestNativeWalk(t *testing.T) {
	table := New(bump(0x40_0000))
	table.Map(0x1234_5000, 0x66, addr.Page4K)
	mem, count := flatMem(50)
	w := NewWalker(DefaultWalkerConfig(), mem)

	res := w.TranslateNative(table, 0, 1, 0x1234_5000)
	if !res.OK || res.HPFN != 0x66 {
		t.Fatalf("native walk = %+v", res)
	}
	if res.Refs != 4 || *count != 4 {
		t.Errorf("cold native refs = %d (mem %d), want 4", res.Refs, *count)
	}
	warm := w.TranslateNative(table, 0, 1, 0x1234_5000)
	if warm.Refs != 1 {
		t.Errorf("warm native refs = %d, want 1 (PDE PSC hit)", warm.Refs)
	}
}

func TestNativeWalkFault(t *testing.T) {
	table := New(bump(0))
	table.Map(0x1000, 1, addr.Page4K)
	mem, _ := flatMem(1)
	w := NewWalker(DefaultWalkerConfig(), mem)
	res := w.TranslateNative(table, 0, 1, 0x5555_0000_0000)
	if res.OK {
		t.Error("fault expected")
	}
}

func TestInvalidateAllResetsAcceleration(t *testing.T) {
	guest, host := twoD(t, 0x7f00_0000_1000, addr.Page4K)
	mem, _ := flatMem(1)
	w := NewWalker(DefaultWalkerConfig(), mem)
	w.Translate2D(guest, host, 1, 1, 0x7f00_0000_1000)
	w.InvalidateAll()
	res := w.Translate2D(guest, host, 1, 1, 0x7f00_0000_1000)
	if res.Refs != 24 {
		t.Errorf("post-flush walk refs = %d, want 24", res.Refs)
	}
}

func TestWalkerStats(t *testing.T) {
	guest, host := twoD(t, 0x7f00_0000_1000, addr.Page4K)
	mem, _ := flatMem(1)
	w := NewWalker(DefaultWalkerConfig(), mem)
	w.Translate2D(guest, host, 1, 1, 0x7f00_0000_1000)
	w.Translate2D(guest, host, 1, 1, 0x7f00_0000_1000)
	s := w.Stats()
	if s.Walks2D != 2 {
		t.Errorf("Walks2D = %d", s.Walks2D)
	}
	if s.AvgRefs() != 12.5 { // (24 + 1) / 2
		t.Errorf("AvgRefs = %f", s.AvgRefs())
	}
	if s.AvgLatency() <= 0 {
		t.Error("AvgLatency should be positive")
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
	var zero WalkStats
	if zero.AvgRefs() != 0 || zero.AvgLatency() != 0 {
		t.Error("zero stats should report 0")
	}
}

func TestPSCBasics(t *testing.T) {
	p := NewPSC("test", 2)
	if _, ok := p.Lookup(1, 1, 0x10); ok {
		t.Error("cold PSC lookup should miss")
	}
	p.Insert(1, 1, 0x10, 0xA000)
	if node, ok := p.Lookup(1, 1, 0x10); !ok || node != 0xA000 {
		t.Errorf("PSC lookup = %#x, %v", node, ok)
	}
	// LRU eviction at capacity 2.
	p.Insert(1, 1, 0x20, 0xB000)
	p.Lookup(1, 1, 0x10) // touch 0x10 so 0x20 is LRU
	p.Insert(1, 1, 0x30, 0xC000)
	if _, ok := p.Lookup(1, 1, 0x20); ok {
		t.Error("LRU entry should have been evicted")
	}
	if _, ok := p.Lookup(1, 1, 0x10); !ok {
		t.Error("MRU entry should survive")
	}
	// Update in place.
	p.Insert(1, 1, 0x10, 0xD000)
	if node, _ := p.Lookup(1, 1, 0x10); node != 0xD000 {
		t.Errorf("updated node = %#x", node)
	}
	p.InvalidateAll()
	if _, ok := p.Lookup(1, 1, 0x10); ok {
		t.Error("InvalidateAll failed")
	}
	if p.stats.Total() == 0 {
		t.Error("stats should be recorded")
	}
}

func TestPSCZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPSC("bad", 0)
}

func TestNestedTLBBasics(t *testing.T) {
	n := NewNestedTLB(2)
	if _, ok := n.Lookup(1, 5); ok {
		t.Error("cold lookup should miss")
	}
	n.Insert(1, 5, 0x5000)
	if h, ok := n.Lookup(1, 5); !ok || h != 0x5000 {
		t.Errorf("lookup = %#x, %v", h, ok)
	}
	if _, ok := n.Lookup(2, 5); ok {
		t.Error("other VM should miss")
	}
	n.Insert(1, 6, 0x6000)
	n.Lookup(1, 5)
	n.Insert(1, 7, 0x7000) // evicts gpfn 6 (LRU)
	if _, ok := n.Lookup(1, 6); ok {
		t.Error("LRU nested entry should be evicted")
	}
	n.Insert(1, 5, 0x9000) // update
	if h, _ := n.Lookup(1, 5); h != 0x9000 {
		t.Errorf("update = %#x", h)
	}
	n.InvalidateAll()
	if _, ok := n.Lookup(1, 5); ok {
		t.Error("InvalidateAll failed")
	}
}

func TestNestedTLBZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewNestedTLB(0)
}

func TestNewWalkerNilMemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewWalker(DefaultWalkerConfig(), nil)
}

// TestWalkerAccessors pins that NewWalker builds each page-structure
// cache and the nested TLB at the capacity its config gives.
func TestWalkerAccessors(t *testing.T) {
	mem, _ := flatMem(1)
	cfg := DefaultWalkerConfig()
	w := NewWalker(cfg, mem)
	got := []int{len(w.pml4c.entries), len(w.pdpc.entries), len(w.pdec.entries), len(w.nested.entries)}
	want := []int{cfg.PML4Entries, cfg.PDPEntries, cfg.PDEEntries, cfg.NestedTLB}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PML4/PDP/PDE/nested capacities = %v, want %v", got, want)
			break
		}
	}
}
