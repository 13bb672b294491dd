package pagetable

import (
	"fmt"

	"repro/internal/addr"
)

// MemFunc models one 8-byte page-table-entry read issued to the memory
// hierarchy at a host physical address; it returns the access latency in
// CPU cycles. The core simulator routes these through the data caches
// (PTEs are cached like data, as in real x86), so walk cost depends on
// locality exactly as the paper's baseline does.
type MemFunc func(a addr.HPA, write bool) uint64

// WalkerConfig sizes the walker's acceleration structures (Table 1 PSC row).
type WalkerConfig struct {
	PML4Entries int
	PDPEntries  int
	PDEEntries  int
	PSCLatency  uint64 // cycles per PSC probe round
	NestedTLB   int    // gPA→hPA nested TLB entries
	NestedLat   uint64 // cycles per nested TLB probe
}

// DefaultWalkerConfig returns the Table 1 PSC configuration with a
// Skylake-like nested TLB.
func DefaultWalkerConfig() WalkerConfig {
	return WalkerConfig{
		PML4Entries: 2,
		PDPEntries:  4,
		PDEEntries:  32,
		PSCLatency:  2,
		NestedTLB:   32,
		NestedLat:   1,
	}
}

// maxAssocEntries bounds each page-structure cache and the nested TLB.
// Both are fully associative: NewWalker allocates every entry up front
// and every probe scans them all, so an unchecked capacity from a config
// file would exhaust host memory, or stall every walk, before anything
// could reject it. 1024 entries is 32× Table 1's 32-entry PDE cache.
const maxAssocEntries = 1024

// Validate reports configuration errors.
func (c WalkerConfig) Validate() error {
	switch {
	case c.PML4Entries <= 0 || c.PDPEntries <= 0 || c.PDEEntries <= 0:
		return fmt.Errorf("pagetable: PSC capacities %d/%d/%d (PML4/PDP/PDE) must be positive",
			c.PML4Entries, c.PDPEntries, c.PDEEntries)
	case c.PML4Entries > maxAssocEntries || c.PDPEntries > maxAssocEntries || c.PDEEntries > maxAssocEntries:
		return fmt.Errorf("pagetable: PSC capacities %d/%d/%d (PML4/PDP/PDE) exceed the %d-entry limit",
			c.PML4Entries, c.PDPEntries, c.PDEEntries, maxAssocEntries)
	case c.NestedTLB <= 0:
		return fmt.Errorf("pagetable: nested TLB capacity %d must be positive", c.NestedTLB)
	case c.NestedTLB > maxAssocEntries:
		return fmt.Errorf("pagetable: nested TLB capacity %d exceeds the %d-entry limit", c.NestedTLB, maxAssocEntries)
	}
	return nil
}

// WalkResult is the outcome of one translation walk.
type WalkResult struct {
	// HPFN is the host physical frame number at Size granularity.
	HPFN uint64
	// Size is the page size of the final mapping (the guest leaf size;
	// an effective mapping is only as large as both dimensions allow, so
	// the guest size is capped by the host mapping's size).
	Size addr.PageSize
	// Latency is the total walk latency in CPU cycles.
	Latency uint64
	// Refs is the number of page-table-entry memory references issued.
	Refs int
	// OK is false on a translation fault (unmapped address).
	OK bool
}

// WalkStats aggregates walker activity.
type WalkStats struct {
	Walks2D      uint64
	WalksNative  uint64
	TotalRefs    uint64
	TotalLatency uint64
	Faults       uint64
	// PSCSkips counts guest levels skipped thanks to PSC hits.
	PSCSkips uint64
}

// AvgRefs returns references per walk.
func (s WalkStats) AvgRefs() float64 {
	n := s.Walks2D + s.WalksNative
	if n == 0 {
		return 0
	}
	return float64(s.TotalRefs) / float64(n)
}

// AvgLatency returns cycles per walk.
func (s WalkStats) AvgLatency() float64 {
	n := s.Walks2D + s.WalksNative
	if n == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(n)
}

// Walker performs radix walks — native 1D walks and virtualized 2D nested
// walks — accelerated by page-structure caches and a nested TLB, issuing
// every PTE reference through a MemFunc.
type Walker struct {
	cfg    WalkerConfig
	pml4c  *PSC
	pdpc   *PSC
	pdec   *PSC
	nested *NestedTLB
	mem    MemFunc
	stats  WalkStats
	// grefs and hrefs are reusable walk scratch buffers (guest/native
	// dimension and host dimension respectively), so steady-state walks
	// allocate nothing. They are distinct because the host dimension is
	// walked while iterating the guest dimension's refs.
	grefs []Ref
	hrefs []Ref
}

// NewWalker builds a walker. mem must not be nil.
func NewWalker(cfg WalkerConfig, mem MemFunc) *Walker {
	if mem == nil {
		panic("pagetable: nil MemFunc")
	}
	return &Walker{
		cfg:    cfg,
		pml4c:  NewPSC(cfg.PML4Entries),
		pdpc:   NewPSC(cfg.PDPEntries),
		pdec:   NewPSC(cfg.PDEEntries),
		nested: NewNestedTLB(cfg.NestedTLB),
		mem:    mem,
		grefs:  make([]Ref, 0, 8),
		hrefs:  make([]Ref, 0, 8),
	}
}

// Stats returns a copy of the walker's counters.
func (w *Walker) Stats() WalkStats { return w.stats }

// ResetStats clears the walk counters; PSC and nested-TLB contents are
// untouched.
func (w *Walker) ResetStats() { w.stats = WalkStats{} }

// Add merges another set of walk counters (for multi-core aggregation).
func (s *WalkStats) Add(o WalkStats) {
	s.Walks2D += o.Walks2D
	s.WalksNative += o.WalksNative
	s.TotalRefs += o.TotalRefs
	s.TotalLatency += o.TotalLatency
	s.Faults += o.Faults
	s.PSCSkips += o.PSCSkips
}

// InvalidateAll flushes all acceleration state (full shootdown).
func (w *Walker) InvalidateAll() {
	w.pml4c.InvalidateAll()
	w.pdpc.InvalidateAll()
	w.pdec.InvalidateAll()
	w.nested.InvalidateAll()
}

// prefix extracts the VA prefix covering the upper levels down to (and
// including) level l's index; this is the tag for the PSC that skips to
// the node *below* level l.
func prefix(va addr.VA, l addr.Level) uint64 {
	switch l {
	case addr.PML4:
		return uint64(va) >> 39
	case addr.PDPT:
		return uint64(va) >> 30
	default: // PD
		return uint64(va) >> 21
	}
}

// pscStart consults the PSCs deepest-first and returns the guest level to
// start walking at plus the cached node address. Cost: one PSC probe round.
func (w *Walker) pscStart(vm addr.VMID, pid addr.PID, va addr.VA) (addr.Level, uint64, bool) {
	if node, ok := w.pdec.Lookup(vm, pid, prefix(va, addr.PD)); ok {
		return addr.PT, node, true
	}
	if node, ok := w.pdpc.Lookup(vm, pid, prefix(va, addr.PDPT)); ok {
		return addr.PD, node, true
	}
	if node, ok := w.pml4c.Lookup(vm, pid, prefix(va, addr.PML4)); ok {
		return addr.PDPT, node, true
	}
	return addr.PML4, 0, false
}

// fillPSCs caches the node addresses discovered by a walk's refs.
func (w *Walker) fillPSCs(vm addr.VMID, pid addr.PID, va addr.VA, refs []Ref) {
	for _, r := range refs {
		node := r.Addr &^ (NodeBytes - 1)
		switch r.Level {
		case addr.PDPT:
			w.pml4c.Insert(vm, pid, prefix(va, addr.PML4), node)
		case addr.PD:
			w.pdpc.Insert(vm, pid, prefix(va, addr.PDPT), node)
		case addr.PT:
			w.pdec.Insert(vm, pid, prefix(va, addr.PD), node)
		}
	}
}

// hostTranslate resolves a guest-physical address to host-physical via the
// nested TLB, falling back to a host-dimension walk whose PTE reads are
// issued through mem. It returns the host address, added latency and refs.
func (w *Walker) hostTranslate(host *Table, vm addr.VMID, gpa uint64) (hpa uint64, lat uint64, refs int, ok bool) {
	lat = w.cfg.NestedLat
	gpfn := gpa >> addr.Shift4K
	if hbase, hit := w.nested.Lookup(vm, gpfn); hit {
		return hbase | gpa&(addr.Bytes4K-1), lat, 0, true
	}
	hrefs, e, ok := host.WalkAppend(gpa, w.hrefs[:0])
	w.hrefs = hrefs[:0]
	for _, r := range hrefs {
		lat += w.mem(addr.HPA(r.Addr), false)
	}
	refs = len(hrefs)
	if !ok {
		return 0, lat, refs, false
	}
	// Host mapping may be 4 KB or 2 MB; normalize to the 4 KB frame
	// containing gpa for the nested TLB.
	hfull := uint64(addr.FromPFN(e.PFN, e.Size, gpa&(e.Size.Bytes()-1)))
	hbase := hfull &^ (addr.Bytes4K - 1)
	w.nested.Insert(vm, gpfn, hbase)
	return hfull, lat, refs, true
}

// Translate2D performs the full virtualized translation of Figure 1:
// every guest page-table node address is guest-physical and must itself be
// translated through the host table before the guest PTE can be read —
// up to 24 memory references when nothing is cached.
func (w *Walker) Translate2D(guest, host *Table, vm addr.VMID, pid addr.PID, va addr.VA) WalkResult {
	res := WalkResult{}
	res.Latency = w.cfg.PSCLatency // PSC probe round
	startLevel, cachedNode, pscHit := w.pscStart(vm, pid, va)

	grefs, gleaf, ok := guest.WalkAppend(uint64(va), w.grefs[:0])
	w.grefs = grefs[:0]
	if !ok {
		res.Latency += w.walkRefs2D(host, vm, grefs)
		res.Refs = len(grefs)
		w.recordWalk(true, res, true)
		return res
	}
	if pscHit {
		// Verify the cached node still matches (stale entries fall back).
		verified := false
		for _, r := range grefs {
			if r.Level == startLevel && r.Addr&^(NodeBytes-1) == cachedNode {
				verified = true
				break
			}
		}
		if verified {
			skipped := 0
			for _, r := range grefs {
				if r.Level < startLevel {
					skipped++
				}
			}
			w.stats.PSCSkips += uint64(skipped)
			grefs = grefs[skipped:]
		}
	}

	// Guest-dimension refs: host-translate each PTE's frame, then read it.
	for _, r := range grefs {
		hpa, lat, refs, hok := w.hostTranslate(host, vm, r.Addr)
		res.Latency += lat
		res.Refs += refs
		if !hok {
			w.recordWalk(true, res, true)
			return res
		}
		res.Latency += w.mem(addr.HPA(hpa), false)
		res.Refs++
	}

	// Final column: host-translate the data guest-physical address.
	gpa := uint64(addr.FromPFN(gleaf.PFN, gleaf.Size, uint64(va)&(gleaf.Size.Bytes()-1)))
	hpa, lat, refs, hok := w.hostTranslate(host, vm, gpa)
	res.Latency += lat
	res.Refs += refs
	if !hok {
		w.recordWalk(true, res, true)
		return res
	}

	w.fillPSCs(vm, pid, va, grefs)
	res.HPFN = hpa >> gleaf.Size.Shift()
	res.Size = gleaf.Size
	res.OK = true
	w.recordWalk(true, res, false)
	return res
}

// walkRefs2D charges the 2D cost of a faulting guest walk's refs.
func (w *Walker) walkRefs2D(host *Table, vm addr.VMID, grefs []Ref) uint64 {
	var lat uint64
	for _, r := range grefs {
		hpa, l, _, ok := w.hostTranslate(host, vm, r.Addr)
		lat += l
		if ok {
			lat += w.mem(addr.HPA(hpa), false)
		}
	}
	return lat
}

// TranslateNative performs a bare-metal 1D walk of a single table whose
// nodes live directly in host physical memory (4 references worst case).
func (w *Walker) TranslateNative(table *Table, vm addr.VMID, pid addr.PID, va addr.VA) WalkResult {
	res := WalkResult{}
	res.Latency = w.cfg.PSCLatency
	startLevel, cachedNode, pscHit := w.pscStart(vm, pid, va)

	var refs []Ref
	var leaf Entry
	var ok bool
	if pscHit {
		refs, leaf, ok = table.WalkFromAppend(uint64(va), startLevel, cachedNode, w.grefs[:0])
		if len(refs) > 0 && refs[0].Level == startLevel {
			w.stats.PSCSkips += uint64(startLevel)
		}
	} else {
		refs, leaf, ok = table.WalkAppend(uint64(va), w.grefs[:0])
	}
	w.grefs = refs[:0]
	for _, r := range refs {
		res.Latency += w.mem(addr.HPA(r.Addr), false)
	}
	res.Refs = len(refs)
	if !ok {
		w.recordWalk(false, res, true)
		return res
	}
	w.fillPSCs(vm, pid, va, refs)
	res.HPFN = leaf.PFN
	res.Size = leaf.Size
	res.OK = true
	w.recordWalk(false, res, false)
	return res
}

// recordWalk accumulates statistics.
func (w *Walker) recordWalk(twoD bool, res WalkResult, fault bool) {
	if twoD {
		w.stats.Walks2D++
	} else {
		w.stats.WalksNative++
	}
	w.stats.TotalRefs += uint64(res.Refs)
	w.stats.TotalLatency += res.Latency
	if fault {
		w.stats.Faults++
	}
}

// String summarizes walker stats.
func (s WalkStats) String() string {
	return fmt.Sprintf("walks=%d(2D)+%d(native) refs/walk=%.1f cyc/walk=%.1f faults=%d pscSkips=%d",
		s.Walks2D, s.WalksNative, s.AvgRefs(), s.AvgLatency(), s.Faults, s.PSCSkips)
}
