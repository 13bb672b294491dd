package oracle

import (
	"repro/internal/addr"
	"repro/internal/tlb"
	"repro/internal/victima"
)

// RefVictima is the reference model for the cache-resident Victima TLB
// store: per-set recency-ordered slices (least recent first) with the
// PTE-aware victim policy recomputed independently — the expected victim
// of a full set is its least-recent 4 KB entry while one exists, and the
// overall LRU entry only in an all-2 MB set. It implements victima.Shadow.
type RefVictima struct {
	h       *Harness
	name    string
	ways    int
	numSets uint64
	sets    [][]tlb.Entry
}

// NewRefVictima builds the reference for a store's geometry and attaches
// it.
func NewRefVictima(h *Harness, s *victima.Store) *RefVictima {
	cfg := s.Config()
	r := &RefVictima{
		h:       h,
		name:    cfg.Name,
		ways:    cfg.DonatedWays,
		numSets: s.Sets(),
		sets:    make([][]tlb.Entry, s.Sets()),
	}
	s.SetShadow(r)
	return r
}

func (r *RefVictima) set(vpn uint64) uint64 { return vpn % r.numSets }

// find returns the position of the entry in the set's recency list, or -1.
func (r *RefVictima) find(si uint64, vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) int {
	for i, e := range r.sets[si] {
		if e.VM == vm && e.PID == pid && e.VPN == vpn && e.Size == size {
			return i
		}
	}
	return -1
}

// touch moves position i to the most-recent end of the set.
func (r *RefVictima) touch(si uint64, i int) {
	set := r.sets[si]
	e := set[i]
	r.sets[si] = append(append(set[:i:i], set[i+1:]...), e)
}

// Lookup implements victima.Shadow: one full dual-size probe.
func (r *RefVictima) Lookup(vm addr.VMID, pid addr.PID, va addr.VA, hit bool, e tlb.Entry, si uint64) {
	r.h.Decision()
	// Reference probe order matches the production one: 4 KB, then 2 MB.
	refSI := r.set(va.VPN(addr.Page4K))
	i := r.find(refSI, vm, pid, va.VPN(addr.Page4K), addr.Page4K)
	if i < 0 {
		refSI = r.set(va.VPN(addr.Page2M))
		i = r.find(refSI, vm, pid, va.VPN(addr.Page2M), addr.Page2M)
	}
	if (i >= 0) != hit {
		r.h.Reportf("victima %s: lookup (vm=%d pid=%d va=%v) production hit=%v, reference hit=%v",
			r.name, vm, pid, va, hit, i >= 0)
		return
	}
	if !hit {
		return
	}
	if got := r.sets[refSI][i]; got.PFN != e.PFN || !e.Valid {
		r.h.Reportf("victima %s: lookup (vm=%d pid=%d va=%v) returned PFN %#x, reference holds %#x",
			r.name, vm, pid, va, e.PFN, got.PFN)
	}
	if refSI != si {
		r.h.Reportf("victima %s: lookup (vm=%d pid=%d va=%v) hit block %d, reference block %d",
			r.name, vm, pid, va, si, refSI)
	}
	r.touch(refSI, i)
}

// Insert implements victima.Shadow.
func (r *RefVictima) Insert(e tlb.Entry, si uint64, victim tlb.Entry, evicted bool) {
	r.h.Decision()
	refSI := r.set(e.VPN)
	if refSI != si {
		r.h.Reportf("victima %s: insert %v placed in block %d, reference block %d", r.name, e, si, refSI)
		return
	}
	set := r.sets[refSI]
	if i := r.find(refSI, e.VM, e.PID, e.VPN, e.Size); i >= 0 {
		if evicted {
			r.h.Reportf("victima %s: refresh of %v evicted %v, reference expected no eviction", r.name, e, victim)
		}
		set[i] = e
		r.touch(refSI, i)
		return
	}
	if len(set) < r.ways {
		if evicted {
			r.h.Reportf("victima %s: insert %v evicted %v with only %d/%d reference ways full",
				r.name, e, victim, len(set), r.ways)
		}
		r.sets[refSI] = append(set, e)
		return
	}
	// PTE-aware victim: the least-recent 4 KB entry when one exists,
	// otherwise the overall LRU (position 0 of the recency list).
	vi := 0
	for i, ee := range set {
		if ee.Size == addr.Page4K {
			vi = i
			break
		}
	}
	want := set[vi]
	if !evicted {
		r.h.Reportf("victima %s: insert %v into full block %d did not evict; reference expected victim %v",
			r.name, e, si, want)
	} else if victim != want {
		r.h.Reportf("victima %s: insert %v evicted %v, reference victim is %v", r.name, e, victim, want)
	}
	r.sets[refSI] = append(append(set[:vi:vi], set[vi+1:]...), e)
}

// InvalidatePage implements victima.Shadow.
func (r *RefVictima) InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize, found bool) {
	r.h.Decision()
	si := r.set(vpn)
	i := r.find(si, vm, pid, vpn, size)
	if (i >= 0) != found {
		r.h.Reportf("victima %s: shootdown (vm=%d pid=%d vpn=%#x %s) production found=%v, reference found=%v",
			r.name, vm, pid, vpn, size, found, i >= 0)
	}
	if i >= 0 {
		set := r.sets[si]
		r.sets[si] = append(set[:i:i], set[i+1:]...)
	}
}

// InvalidateProcess implements victima.Shadow.
func (r *RefVictima) InvalidateProcess(vm addr.VMID, pid addr.PID, n int) {
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
		r.h.Reportf("victima %s: process flush dropped %d production entries, %d reference entries",
			r.name, n, removed)
	}
}

// DropLine implements victima.Shadow: the L2 data cache evicted block si.
func (r *RefVictima) DropLine(si uint64, n int) {
	r.h.Decision()
	if si >= r.numSets {
		r.h.Reportf("victima %s: cache eviction flushed block %d of %d", r.name, si, r.numSets)
		return
	}
	if got := len(r.sets[si]); got != n {
		r.h.Reportf("victima %s: cache eviction of block %d dropped %d production entries, %d reference entries",
			r.name, si, n, got)
	}
	r.sets[si] = nil
}
