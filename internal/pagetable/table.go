// Package pagetable implements the x86-style radix-4 page tables the
// translation machinery walks, and the 2D nested walker (guest × host) of
// Figure 1 with the page-structure caches (PSC) and nested TLB that modern
// MMUs use to shorten walks.
//
// A Table is a 4-level radix tree whose nodes live at concrete addresses in
// *some* address space: the guest page table's nodes live at guest physical
// addresses, the host (EPT) table's nodes at host physical addresses. The
// table therefore works on raw uint64 addresses; the virt package layers the
// type-safe gVA/gPA/hPA views on top.
package pagetable

import (
	"fmt"

	"repro/internal/addr"
)

// Entry is a leaf translation: frame number at a page size.
type Entry struct {
	PFN  uint64
	Size addr.PageSize
}

// Ref records one PTE read performed by a walk: the level being resolved
// and the address (in the table's own address space) of the 8-byte entry.
type Ref struct {
	Level addr.Level
	Addr  uint64
}

// NodeBytes is the size of one radix node (512 × 8-byte entries).
const NodeBytes = 4096

// node is one radix level's table at its hardware size: 512 8-byte
// slots, one 4 KB object holding no Go pointers, so the garbage
// collector never scans it. A slot is 0 when empty, holds a leaf as
// pfn<<3 | size<<1 | 1, or holds a child as the child's index in
// Table.nodes shifted left by one (bit 0 clear, and never 0: the root,
// index 0, is nobody's child). A frame number of a 64-bit address is
// below 2^52, so pfn<<3 cannot overflow.
type node [512]uint64

// leafSlot packs a leaf translation into a slot.
func leafSlot(pfn uint64, size addr.PageSize) uint64 { return pfn<<3 | uint64(size)<<1 | 1 }

// slotEntry unpacks a leaf slot (one with bit 0 set).
func slotEntry(s uint64) Entry {
	return Entry{PFN: s >> 3, Size: addr.PageSize(s >> 1 & 3)}
}

// Table is a radix-4 page table. Its nodes are allocated on demand;
// nodes[0] is the root, and bases[i] is the address of nodes[i] in the
// table's address space.
type Table struct {
	// alloc allocates one 4 KB node frame and returns its base address.
	alloc func() uint64
	nodes []*node
	bases []uint64
}

// New creates an empty table. alloc provides node frames; it must return
// 4 KB-aligned addresses.
func New(alloc func() uint64) *Table {
	if alloc == nil {
		panic("pagetable: nil allocator")
	}
	return &Table{alloc: alloc}
}

// leafLevel returns the radix level a mapping of the given size terminates
// at: PT for 4 KB, PD for 2 MB, PDPT for 1 GB.
func leafLevel(size addr.PageSize) addr.Level {
	switch size {
	case addr.Page2M:
		return addr.PD
	case addr.Page1G:
		return addr.PDPT
	}
	return addr.PT
}

// newNode allocates a radix node frame and returns its base address.
func (t *Table) newNode() uint64 {
	base := t.alloc()
	t.nodes = append(t.nodes, new(node))
	t.bases = append(t.bases, base)
	return base
}

// Map installs va → pfn at the given page size. It returns the base
// addresses of any radix nodes allocated along the way (including the root
// on first use), so a hypervisor can in turn map those node frames in its
// EPT. Mapping over an existing translation of the same size updates it;
// conflicting geometry (e.g. a 2 MB leaf where a 4 KB mapping needs a PT
// node) is an error.
func (t *Table) Map(va uint64, pfn uint64, size addr.PageSize) ([]uint64, error) {
	var created []uint64
	if len(t.nodes) == 0 {
		created = append(created, t.newNode())
	}
	n := t.nodes[0]
	leafAt := leafLevel(size)
	for l := addr.PML4; l < leafAt; l++ {
		idx := addr.Index(addr.VA(va), l)
		s := n[idx]
		if s&1 != 0 {
			return created, fmt.Errorf("pagetable: %s index %d holds a %s leaf, cannot map %s at %#x",
				l, idx, slotEntry(s).Size, size, va)
		}
		if s == 0 {
			s = uint64(len(t.nodes)) << 1
			created = append(created, t.newNode())
			n[idx] = s
		}
		n = t.nodes[s>>1]
	}
	idx := addr.Index(addr.VA(va), leafAt)
	if s := n[idx]; s != 0 && s&1 == 0 {
		return created, fmt.Errorf("pagetable: %s index %d holds a child table, cannot map %s leaf at %#x",
			leafAt, idx, size, va)
	}
	n[idx] = leafSlot(pfn, size)
	return created, nil
}

// Lookup resolves va without producing the walk trace.
func (t *Table) Lookup(va uint64) (Entry, bool) {
	if len(t.nodes) == 0 {
		return Entry{}, false
	}
	n := t.nodes[0]
	for l := addr.PML4; l <= addr.PT; l++ {
		s := n[addr.Index(addr.VA(va), l)]
		if s&1 != 0 {
			return slotEntry(s), true
		}
		if s == 0 {
			break
		}
		n = t.nodes[s>>1]
	}
	return Entry{}, false
}

// WalkAppend resolves va and appends every PTE reference the hardware
// walker would issue to refs: one 8-byte read per visited level, at
// nodeBase + 8×index. On a translation fault the refs up to and including
// the faulting entry are still returned with ok = false. Callers pass
// buf[:0] of a reused scratch slice, so steady-state walks allocate
// nothing. A radix-4 walk issues at most 4 references.
func (t *Table) WalkAppend(va uint64, refs []Ref) ([]Ref, Entry, bool) {
	if len(t.nodes) == 0 {
		return refs, Entry{}, false
	}
	return t.walkFrom(va, addr.PML4, 0, refs)
}

// WalkFromAppend is WalkAppend starting below a known intermediate node,
// as a walker with a page-structure-cache hit would: startLevel is the
// level of the provided node (whose base address a PSC supplied), and
// only levels from startLevel down are referenced.
func (t *Table) WalkFromAppend(va uint64, startLevel addr.Level, nodeBase uint64, refs []Ref) ([]Ref, Entry, bool) {
	n := t.findNode(va, startLevel)
	if n < 0 || t.bases[n] != nodeBase {
		// Stale PSC entry: fall back to a full walk.
		return t.WalkAppend(va, refs)
	}
	return t.walkFrom(va, startLevel, n, refs)
}

// walkFrom walks va from node n, which serves level l, down to the leaf.
func (t *Table) walkFrom(va uint64, l addr.Level, n int, refs []Ref) ([]Ref, Entry, bool) {
	for ; l <= addr.PT; l++ {
		idx := addr.Index(addr.VA(va), l)
		refs = append(refs, Ref{Level: l, Addr: t.bases[n] + 8*idx})
		s := t.nodes[n][idx]
		if s&1 != 0 {
			return refs, slotEntry(s), true
		}
		if s == 0 {
			break
		}
		n = int(s >> 1)
	}
	return refs, Entry{}, false
}

// findNode returns the index of the node that serves the given level of
// va's walk, or -1 when the walk ends above that level.
func (t *Table) findNode(va uint64, level addr.Level) int {
	if len(t.nodes) == 0 {
		return -1
	}
	n := 0
	for l := addr.PML4; l < level; l++ {
		s := t.nodes[n][addr.Index(addr.VA(va), l)]
		if s&1 != 0 || s == 0 {
			return -1
		}
		n = int(s >> 1)
	}
	return n
}

// Unmap removes the translation for va, returning the removed entry. Radix
// nodes are not reclaimed (real kernels rarely free them either).
func (t *Table) Unmap(va uint64) (Entry, bool) {
	if len(t.nodes) == 0 {
		return Entry{}, false
	}
	n := t.nodes[0]
	for l := addr.PML4; l <= addr.PT; l++ {
		s := &n[addr.Index(addr.VA(va), l)]
		if *s&1 != 0 {
			e := slotEntry(*s)
			*s = 0
			return e, true
		}
		if *s == 0 {
			break
		}
		n = t.nodes[*s>>1]
	}
	return Entry{}, false
}
