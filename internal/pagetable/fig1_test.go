package pagetable

import (
	"testing"

	"repro/internal/addr"
)

// TestFig1ReferenceOrdering verifies not just the count but the *structure*
// of the cold 2D walk: the paper's Figure 1 sequence is, for each of the
// four guest levels, a full four-level host walk (hL4 hL3 hL2 hL1) followed
// by the guest PTE read, and finally a four-level host walk of the data
// address — 24 references in 5 columns.
func TestFig1ReferenceOrdering(t *testing.T) {
	guest, host := twoD(t, 0x7f00_0000_1000, addr.Page4K)

	// Record every reference with whether it falls inside the host table's
	// node region (host walks) or the EPT-mapped guest node frames.
	hostNodes := map[uint64]bool{}
	// The host table's nodes live at 0x900_0000.. (see twoD); collect them
	// by walking the host table for each guest ref.
	var kinds []byte // 'h' = host PTE read, 'g' = guest PTE read
	mem := func(a addr.HPA, write bool) uint64 {
		if uint64(a) >= 0x900_0000 && uint64(a) < 0x900_0000+1<<20 {
			kinds = append(kinds, 'h')
		} else {
			kinds = append(kinds, 'g')
		}
		return 1
	}
	_ = hostNodes
	w := NewWalker(DefaultWalkerConfig(), mem)
	res := w.Translate2D(guest, host, 1, 1, 0x7f00_0000_1000)
	if !res.OK || res.Refs != 24 {
		t.Fatalf("cold walk: ok=%v refs=%d", res.OK, res.Refs)
	}

	want := "hhhhg" + "hhhhg" + "hhhhg" + "hhhhg" + "hhhh"
	if got := string(kinds); got != want {
		t.Errorf("Figure 1 ordering violated:\n got %s\nwant %s", got, want)
	}
}

// TestFig1NativeOrdering: a native walk is simply the four levels in order.
func TestFig1NativeOrdering(t *testing.T) {
	table := New(bump(0x40_0000))
	table.Map(0x1234_5000, 0x66, addr.Page4K)
	var levels []addr.Level
	full, _, _ := table.WalkAppend(0x1234_5000, nil)
	for _, r := range full {
		levels = append(levels, r.Level)
	}
	for i, l := range levels {
		if l != addr.Level(i) {
			t.Errorf("ref %d at level %v, want %v", i, l, addr.Level(i))
		}
	}
}
