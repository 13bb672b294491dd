package pagetable

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

// bump returns a 4 KB-aligned bump allocator starting at base.
func bump(base uint64) func() uint64 {
	next := base
	return func() uint64 {
		a := next
		next += NodeBytes
		return a
	}
}

func TestNewNilAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(nil)
}

func TestMapLookup4K(t *testing.T) {
	tab := New(bump(0x10_0000))
	if tab.root != nil {
		t.Error("root should be unallocated before first Map")
	}
	created, err := tab.Map(0x7f00_0000_1000, 0x42, addr.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 4 { // root + 3 intermediate nodes
		t.Errorf("created %d nodes, want 4", len(created))
	}
	if tab.root.base != 0x10_0000 {
		t.Errorf("root at %#x", tab.root.base)
	}
	e, ok := tab.Lookup(0x7f00_0000_1234)
	if !ok || e.PFN != 0x42 || e.Size != addr.Page4K {
		t.Errorf("Lookup = %+v, %v", e, ok)
	}
	if _, ok := tab.Lookup(0x7f00_0000_3000); ok {
		t.Error("adjacent page should be unmapped")
	}
}

func TestMapLookup2M(t *testing.T) {
	tab := New(bump(0))
	created, err := tab.Map(0x4000_0000, 0x9, addr.Page2M)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 3 { // root + PDPT + PD: 2 MB leaf lives in PD
		t.Errorf("created %d nodes, want 3", len(created))
	}
	e, ok := tab.Lookup(0x4000_0000 + 12345)
	if !ok || e.PFN != 0x9 || e.Size != addr.Page2M {
		t.Errorf("Lookup = %+v, %v", e, ok)
	}
}

func TestMapReusesNodes(t *testing.T) {
	tab := New(bump(0))
	c1, _ := tab.Map(0x1000, 1, addr.Page4K)
	c2, err := tab.Map(0x2000, 2, addr.Page4K) // same PT node
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != 4 || len(c2) != 0 {
		t.Errorf("created %d then %d nodes, want 4 then 0", len(c1), len(c2))
	}
	if tab.nodes != 4 || tab.pages != 2 {
		t.Errorf("nodes=%d pages=%d", tab.nodes, tab.pages)
	}
}

func TestMapRemapUpdates(t *testing.T) {
	tab := New(bump(0))
	tab.Map(0x1000, 1, addr.Page4K)
	_, err := tab.Map(0x1000, 99, addr.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := tab.Lookup(0x1000)
	if e.PFN != 99 {
		t.Errorf("remap PFN = %d", e.PFN)
	}
	if tab.pages != 1 {
		t.Errorf("pages = %d", tab.pages)
	}
}

func TestMapConflicts(t *testing.T) {
	tab := New(bump(0))
	// 2 MB leaf, then a 4 KB map underneath must fail.
	if _, err := tab.Map(0x4000_0000, 1, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Map(0x4000_0000+0x1000, 2, addr.Page4K); err == nil {
		t.Error("4K map under 2M leaf should fail")
	}
	// 4 KB map first, then a 2 MB map over the same PD slot must fail.
	tab2 := New(bump(0))
	if _, err := tab2.Map(0x1000, 1, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if _, err := tab2.Map(0x0, 2, addr.Page2M); err == nil {
		t.Error("2M map over existing PT should fail")
	}
}

func TestWalkRefs(t *testing.T) {
	tab := New(bump(0x1_0000))
	tab.Map(0x7f00_0000_1000, 0x42, addr.Page4K)
	refs, e, ok := tab.WalkAppend(0x7f00_0000_1000, nil)
	if !ok || e.PFN != 0x42 {
		t.Fatalf("walk = %+v, %v", e, ok)
	}
	if len(refs) != 4 {
		t.Fatalf("refs = %d, want 4", len(refs))
	}
	for i, r := range refs {
		if r.Level != addr.Level(i) {
			t.Errorf("ref %d level = %v", i, r.Level)
		}
		if r.Addr%8 != 0 {
			t.Errorf("ref %d addr %#x not 8-aligned", i, r.Addr)
		}
	}
	if refs[0].Addr&^uint64(NodeBytes-1) != tab.root.base {
		t.Error("first ref should be in the root node")
	}
}

func TestWalk2MHasThreeRefs(t *testing.T) {
	tab := New(bump(0))
	tab.Map(0x4000_0000, 0x9, addr.Page2M)
	refs, _, ok := tab.WalkAppend(0x4000_0000, nil)
	if !ok || len(refs) != 3 {
		t.Errorf("2M walk refs = %d (ok=%v), want 3", len(refs), ok)
	}
}

func TestWalkFault(t *testing.T) {
	tab := New(bump(0))
	tab.Map(0x1000, 1, addr.Page4K)
	refs, _, ok := tab.WalkAppend(0x9999_0000_0000, nil)
	if ok {
		t.Error("walk of unmapped VA should fault")
	}
	if len(refs) != 1 { // root PML4 entry read, found invalid
		t.Errorf("fault refs = %d, want 1", len(refs))
	}
	empty := New(bump(0))
	refs, _, ok = empty.WalkAppend(0x1000, nil)
	if ok || len(refs) != 0 {
		t.Errorf("empty table walk = %d refs, ok=%v", len(refs), ok)
	}
}

func TestWalkFrom(t *testing.T) {
	tab := New(bump(0x1_0000))
	tab.Map(0x7f00_0000_1000, 0x42, addr.Page4K)
	full, _, _ := tab.WalkAppend(0x7f00_0000_1000, nil)
	ptNode := full[3].Addr &^ uint64(NodeBytes-1)
	refs, e, ok := tab.WalkFromAppend(0x7f00_0000_1000, addr.PT, ptNode, nil)
	if !ok || e.PFN != 0x42 {
		t.Fatalf("WalkFrom = %+v, %v", e, ok)
	}
	if len(refs) != 1 || refs[0].Level != addr.PT {
		t.Errorf("WalkFrom refs = %+v", refs)
	}
	// Stale node base falls back to a full walk.
	refs, _, ok = tab.WalkFromAppend(0x7f00_0000_1000, addr.PT, 0xdead000, nil)
	if !ok || len(refs) != 4 {
		t.Errorf("stale WalkFrom refs = %d, ok=%v, want full walk", len(refs), ok)
	}
}

func TestNodeAddr(t *testing.T) {
	tab := New(bump(0x1_0000))
	tab.Map(0x7f00_0000_1000, 0x42, addr.Page4K)
	full, _, _ := tab.WalkAppend(0x7f00_0000_1000, nil)
	for l := addr.PML4; l <= addr.PT; l++ {
		n := tab.findNode(0x7f00_0000_1000, l)
		if n == nil || n.base != full[l].Addr&^uint64(NodeBytes-1) {
			t.Errorf("findNode(%v) is not the node the walk reads", l)
		}
	}
	if tab.findNode(0x9999_0000_0000, addr.PT) != nil {
		t.Error("findNode of unmapped region should fail")
	}
	// 2 MB leaf: no PT node exists below it.
	tab2 := New(bump(0))
	tab2.Map(0x4000_0000, 1, addr.Page2M)
	if tab2.findNode(0x4000_0000, addr.PT) != nil {
		t.Error("findNode below a 2M leaf should fail")
	}
}

func TestUnmap(t *testing.T) {
	tab := New(bump(0))
	tab.Map(0x1000, 7, addr.Page4K)
	e, ok := tab.Unmap(0x1000)
	if !ok || e.PFN != 7 {
		t.Errorf("Unmap = %+v, %v", e, ok)
	}
	if _, ok := tab.Lookup(0x1000); ok {
		t.Error("mapping survived Unmap")
	}
	if _, ok := tab.Unmap(0x1000); ok {
		t.Error("double Unmap should fail")
	}
	if tab.pages != 0 {
		t.Errorf("pages = %d", tab.pages)
	}
}

// Property: Map then Lookup roundtrips for arbitrary canonical addresses
// and sizes (skipping geometry conflicts).
func TestMapLookupProperty(t *testing.T) {
	tab := New(bump(0x100_0000))
	f := func(raw uint64, pfn uint32, large bool) bool {
		size := addr.Page4K
		if large {
			size = addr.Page2M
		}
		va := raw & (1<<48 - 1)
		if _, err := tab.Map(va, uint64(pfn), size); err != nil {
			return true // geometry conflict with an earlier iteration: fine
		}
		e, ok := tab.Lookup(va)
		return ok && e.PFN == uint64(pfn) && e.Size == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Walk and Lookup agree.
func TestWalkLookupAgreeProperty(t *testing.T) {
	tab := New(bump(0))
	for i := uint64(0); i < 200; i++ {
		tab.Map(i*0x1000, i, addr.Page4K)
	}
	f := func(raw uint32) bool {
		va := uint64(raw) & 0xFF_F000
		_, we, wok := tab.WalkAppend(va, nil)
		le, lok := tab.Lookup(va)
		return wok == lok && we == le
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapLookup1G(t *testing.T) {
	tab := New(bump(0))
	created, err := tab.Map(0x40_0000_0000, 0x7, addr.Page1G)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 2 { // root + PDPT: 1 GB leaf lives in the PDPT
		t.Errorf("created %d nodes, want 2", len(created))
	}
	e, ok := tab.Lookup(0x40_0000_0000 + 123456789)
	if !ok || e.PFN != 0x7 || e.Size != addr.Page1G {
		t.Errorf("Lookup = %+v, %v", e, ok)
	}
	refs, _, ok := tab.WalkAppend(0x40_0000_0000, nil)
	if !ok || len(refs) != 2 {
		t.Errorf("1G walk refs = %d (ok=%v), want 2", len(refs), ok)
	}
}
