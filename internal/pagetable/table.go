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
	PFN   uint64
	Size  addr.PageSize
	Valid bool
}

// Ref records one PTE read performed by a walk: the level being resolved
// and the address (in the table's own address space) of the 8-byte entry.
type Ref struct {
	Level addr.Level
	Addr  uint64
}

// NodeBytes is the size of one radix node (512 × 8-byte entries).
const NodeBytes = 4096

// node is one radix level's 512-entry table.
type node struct {
	base     uint64 // address of this node in the table's address space
	children [512]*node
	leaf     [512]Entry
}

// Table is a radix-4 page table rooted at a lazily-allocated node.
type Table struct {
	// Alloc allocates one 4 KB node frame and returns its base address.
	alloc func() uint64
	root  *node
	nodes int
	pages int
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

// newNode allocates a radix node.
func (t *Table) newNode() *node {
	t.nodes++
	return &node{base: t.alloc()}
}

// Map installs va → pfn at the given page size. It returns the base
// addresses of any radix nodes allocated along the way (including the root
// on first use), so a hypervisor can in turn map those node frames in its
// EPT. Mapping over an existing translation of the same size updates it;
// conflicting geometry (e.g. a 2 MB leaf where a 4 KB mapping needs a PT
// node) is an error.
func (t *Table) Map(va uint64, pfn uint64, size addr.PageSize) ([]uint64, error) {
	var created []uint64
	if t.root == nil {
		t.root = t.newNode()
		created = append(created, t.root.base)
	}
	n := t.root
	leafAt := leafLevel(size)
	for l := addr.PML4; l < leafAt; l++ {
		idx := addr.Index(addr.VA(va), l)
		if n.leaf[idx].Valid {
			return created, fmt.Errorf("pagetable: %s index %d holds a %s leaf, cannot map %s at %#x",
				l, idx, n.leaf[idx].Size, size, va)
		}
		child := n.children[idx]
		if child == nil {
			child = t.newNode()
			n.children[idx] = child
			created = append(created, child.base)
		}
		n = child
	}
	idx := addr.Index(addr.VA(va), leafAt)
	if n.children[idx] != nil {
		return created, fmt.Errorf("pagetable: %s index %d holds a child table, cannot map %s leaf at %#x",
			leafAt, idx, size, va)
	}
	if !n.leaf[idx].Valid {
		t.pages++
	}
	n.leaf[idx] = Entry{PFN: pfn, Size: size, Valid: true}
	return created, nil
}

// Lookup resolves va without producing the walk trace.
func (t *Table) Lookup(va uint64) (Entry, bool) {
	n := t.root
	for l := addr.PML4; l <= addr.PT && n != nil; l++ {
		idx := addr.Index(addr.VA(va), l)
		if e := n.leaf[idx]; e.Valid {
			return e, true
		}
		n = n.children[idx]
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
	n := t.root
	for l := addr.PML4; l <= addr.PT; l++ {
		if n == nil {
			return refs, Entry{}, false
		}
		idx := addr.Index(addr.VA(va), l)
		refs = append(refs, Ref{Level: l, Addr: n.base + 8*idx})
		if leaf := n.leaf[idx]; leaf.Valid {
			return refs, leaf, true
		}
		n = n.children[idx]
	}
	return refs, Entry{}, false
}

// WalkFromAppend is WalkAppend starting below a known intermediate node,
// as a walker with a page-structure-cache hit would: startLevel is the
// level of the provided node (whose base address a PSC supplied), and
// only levels from startLevel down are referenced.
func (t *Table) WalkFromAppend(va uint64, startLevel addr.Level, nodeBase uint64, refs []Ref) ([]Ref, Entry, bool) {
	n := t.findNode(va, startLevel)
	if n == nil || n.base != nodeBase {
		// Stale PSC entry: fall back to a full walk.
		return t.WalkAppend(va, refs)
	}
	for l := startLevel; l <= addr.PT; l++ {
		if n == nil {
			return refs, Entry{}, false
		}
		idx := addr.Index(addr.VA(va), l)
		refs = append(refs, Ref{Level: l, Addr: n.base + 8*idx})
		if leaf := n.leaf[idx]; leaf.Valid {
			return refs, leaf, true
		}
		n = n.children[idx]
	}
	return refs, Entry{}, false
}

// findNode returns the node that serves the given level of va's walk.
func (t *Table) findNode(va uint64, level addr.Level) *node {
	n := t.root
	for l := addr.PML4; l < level && n != nil; l++ {
		if n.leaf[addr.Index(addr.VA(va), l)].Valid {
			return nil // walk terminates above the requested level
		}
		n = n.children[addr.Index(addr.VA(va), l)]
	}
	return n
}

// Unmap removes the translation for va, returning the removed entry. Radix
// nodes are not reclaimed (real kernels rarely free them either).
func (t *Table) Unmap(va uint64) (Entry, bool) {
	n := t.root
	for l := addr.PML4; l <= addr.PT && n != nil; l++ {
		idx := addr.Index(addr.VA(va), l)
		if e := n.leaf[idx]; e.Valid {
			n.leaf[idx] = Entry{}
			t.pages--
			return e, true
		}
		n = n.children[idx]
	}
	return Entry{}, false
}
