package oracle

import (
	"repro/internal/addr"
	"repro/internal/tlb"
)

// tlbKey identifies one translation in the reference TLB.
type tlbKey struct {
	vm   addr.VMID
	pid  addr.PID
	vpn  uint64
	size addr.PageSize
}

// RefTLB is the map+LRU-list reference model for a set-associative SRAM
// TLB. Each set is an explicit recency-ordered slice (least recent
// first); the set index is recomputed with modulo arithmetic rather than
// the production mask. It implements tlb.Shadow.
type RefTLB struct {
	h       *Harness
	name    string
	ways    int
	numSets uint64
	sets    [][]tlb.Entry
}

// NewRefTLB builds the reference for a TLB with cfg's geometry and
// attaches it to t.
func NewRefTLB(h *Harness, t *tlb.TLB) *RefTLB {
	cfg := t.Config()
	r := &RefTLB{
		h:       h,
		name:    cfg.Name,
		ways:    cfg.Ways,
		numSets: uint64(cfg.Entries / cfg.Ways),
		sets:    make([][]tlb.Entry, cfg.Entries/cfg.Ways),
	}
	t.SetShadow(r)
	return r
}

func (r *RefTLB) set(vpn uint64) uint64 { return vpn % r.numSets }

// find returns the position of key in the set's recency list, or -1.
func (r *RefTLB) find(si uint64, k tlbKey) int {
	for i, e := range r.sets[si] {
		if e.VM == k.vm && e.PID == k.pid && e.VPN == k.vpn && e.Size == k.size {
			return i
		}
	}
	return -1
}

// touch moves position i to the most-recent end of the set.
func (r *RefTLB) touch(si uint64, i int) {
	set := r.sets[si]
	e := set[i]
	r.sets[si] = append(append(set[:i:i], set[i+1:]...), e)
}

// LookupSize implements tlb.Shadow.
func (r *RefTLB) LookupSize(vm addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize, hit bool, e tlb.Entry) {
	r.h.Decision()
	vpn := va.VPN(size)
	si := r.set(vpn)
	i := r.find(si, tlbKey{vm, pid, vpn, size})
	if (i >= 0) != hit {
		r.h.Reportf("tlb %s: lookup (vm=%d pid=%d vpn=%#x %s) production hit=%v, reference hit=%v",
			r.name, vm, pid, vpn, size, hit, i >= 0)
		return
	}
	if !hit {
		return
	}
	if got := r.sets[si][i]; got.PFN != e.PFN || !e.Valid {
		r.h.Reportf("tlb %s: lookup (vm=%d pid=%d vpn=%#x %s) returned PFN %#x, reference holds %#x",
			r.name, vm, pid, vpn, size, e.PFN, got.PFN)
	}
	r.touch(si, i)
}

// Insert implements tlb.Shadow.
func (r *RefTLB) Insert(e tlb.Entry, victim tlb.Entry, evicted bool) {
	r.h.Decision()
	si := r.set(e.VPN)
	set := r.sets[si]
	if i := r.find(si, tlbKey{e.VM, e.PID, e.VPN, e.Size}); i >= 0 {
		if evicted {
			r.h.Reportf("tlb %s: refresh of %v evicted %v, reference expected no eviction", r.name, e, victim)
		}
		set[i] = e
		r.touch(si, i)
		return
	}
	if len(set) < r.ways {
		if evicted {
			r.h.Reportf("tlb %s: insert %v evicted %v with only %d/%d reference ways full",
				r.name, e, victim, len(set), r.ways)
		}
		r.sets[si] = append(set, e)
		return
	}
	lru := set[0]
	if !evicted {
		r.h.Reportf("tlb %s: insert %v into full set %d did not evict; reference expected victim %v",
			r.name, e, si, lru)
	} else if victim != lru {
		r.h.Reportf("tlb %s: insert %v evicted %v, reference LRU is %v", r.name, e, victim, lru)
	}
	r.sets[si] = append(set[1:len(set):len(set)], e)
}

// InvalidatePage implements tlb.Shadow.
func (r *RefTLB) InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize, found bool) {
	r.h.Decision()
	si := r.set(vpn)
	i := r.find(si, tlbKey{vm, pid, vpn, size})
	if (i >= 0) != found {
		r.h.Reportf("tlb %s: shootdown (vm=%d pid=%d vpn=%#x %s) production found=%v, reference found=%v",
			r.name, vm, pid, vpn, size, found, i >= 0)
	}
	if i >= 0 {
		set := r.sets[si]
		r.sets[si] = append(set[:i:i], set[i+1:]...)
	}
}

// InvalidateProcess implements tlb.Shadow: it drops every reference
// entry of (vm, pid) and diffs the removal count.
func (r *RefTLB) InvalidateProcess(vm addr.VMID, pid addr.PID, n int) {
	r.h.Decision()
	removed := 0
	for si, set := range r.sets {
		kept := set[:0:len(set)]
		for _, e := range set {
			if e.VM == vm && e.PID == pid {
				removed++
			} else {
				kept = append(kept, e)
			}
		}
		r.sets[si] = kept
	}
	if removed != n {
		r.h.Reportf("tlb %s: process flush dropped %d production entries, %d reference entries", r.name, n, removed)
	}
}
