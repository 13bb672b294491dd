package oracle

import (
	"repro/internal/addr"
	"repro/internal/pomtlb"
)

// refWay is one way of the reference POM-TLB partition.
type refWay struct {
	valid bool
	vm    addr.VMID
	pid   addr.PID
	vpn   uint64
	pfn   uint64
	age   uint8 // 2-bit age, 3 = most recent
}

// RefPOM is the reference model for one POM-TLB partition. Because the
// production 2-bit LRU breaks ties by way scan order, the reference must
// mirror way positions exactly: each set is a fixed-size slice indexed
// by way, with the aging and victim rules restated independently. The
// Equation (1) set index is likewise recomputed with division/modulo.
// It implements pomtlb.Shadow.
type RefPOM struct {
	h       *Harness
	name    string
	size    addr.PageSize
	numSets uint64
	sets    [][]refWay
}

// NewRefPOM builds the reference for partition p's geometry and attaches
// it.
func NewRefPOM(h *Harness, p *pomtlb.Partition) *RefPOM {
	ways := int(p.Entries() / p.Sets())
	r := &RefPOM{
		h:       h,
		name:    "pom-" + p.PageSize.String(),
		size:    p.PageSize,
		numSets: p.Sets(),
		sets:    make([][]refWay, p.Sets()),
	}
	for i := range r.sets {
		r.sets[i] = make([]refWay, ways)
	}
	p.SetShadow(r)
	return r
}

// set restates Equation (1): four consecutive pages share a set, the VM
// ID spread by the Knuth hash, modulo the set count.
func (r *RefPOM) set(vpn uint64, vm addr.VMID) uint64 {
	return (vpn/4 ^ uint64(vm)*2654435761) % r.numSets
}

func (r *RefPOM) find(set []refWay, vm addr.VMID, pid addr.PID, vpn uint64) int {
	for i, w := range set {
		if w.valid && w.vm == vm && w.pid == pid && w.vpn == vpn {
			return i
		}
	}
	return -1
}

// age applies the 2-bit update: the touched way becomes 3, every other
// valid way decays toward 0.
func age(set []refWay, touched int) {
	for i := range set {
		switch {
		case i == touched:
			set[i].age = 3
		case set[i].valid && set[i].age > 0:
			set[i].age--
		}
	}
}

// Search implements pomtlb.Shadow.
func (r *RefPOM) Search(vm addr.VMID, pid addr.PID, va addr.VA, hit bool, e pomtlb.Entry) {
	r.h.Decision()
	vpn := va.VPN(r.size)
	set := r.sets[r.set(vpn, vm)]
	i := r.find(set, vm, pid, vpn)
	if (i >= 0) != hit {
		r.h.Reportf("%s: search (vm=%d pid=%d vpn=%#x) production hit=%v, reference hit=%v",
			r.name, vm, pid, vpn, hit, i >= 0)
		return
	}
	if !hit {
		return
	}
	if set[i].pfn != e.PFN {
		r.h.Reportf("%s: search (vm=%d pid=%d vpn=%#x) returned PFN %#x, reference holds %#x",
			r.name, vm, pid, vpn, e.PFN, set[i].pfn)
	}
	age(set, i)
}

// Insert implements pomtlb.Shadow.
func (r *RefPOM) Insert(e pomtlb.Entry, victim pomtlb.Entry, evicted bool) {
	r.h.Decision()
	set := r.sets[r.set(e.VPN, e.VM)]
	if i := r.find(set, e.VM, e.PID, e.VPN); i >= 0 {
		if evicted {
			r.h.Reportf("%s: refresh of vpn %#x evicted %v, reference expected no eviction", r.name, e.VPN, victim)
		}
		set[i].pfn = e.PFN
		age(set, i)
		return
	}
	// Victim: the first invalid way, else the first way holding the
	// minimum age.
	vi := -1
	for i, w := range set {
		if !w.valid {
			vi = i
			break
		}
		if vi < 0 || w.age < set[vi].age {
			vi = i
		}
	}
	switch {
	case !set[vi].valid:
		if evicted {
			r.h.Reportf("%s: insert vpn %#x evicted %v, reference way %d is free", r.name, e.VPN, victim, vi)
		}
	case !evicted:
		r.h.Reportf("%s: insert vpn %#x into full set did not evict; reference victim way %d (vpn %#x)",
			r.name, e.VPN, vi, set[vi].vpn)
	case victim.VM != set[vi].vm || victim.PID != set[vi].pid || victim.VPN != set[vi].vpn || victim.PFN != set[vi].pfn:
		r.h.Reportf("%s: insert vpn %#x evicted (vm=%d pid=%d vpn=%#x pfn=%#x), reference victim (vm=%d pid=%d vpn=%#x pfn=%#x)",
			r.name, e.VPN, victim.VM, victim.PID, victim.VPN, victim.PFN,
			set[vi].vm, set[vi].pid, set[vi].vpn, set[vi].pfn)
	}
	set[vi] = refWay{valid: true, vm: e.VM, pid: e.PID, vpn: e.VPN, pfn: e.PFN}
	age(set, vi)
}

// InvalidatePage implements pomtlb.Shadow.
func (r *RefPOM) InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, found bool) {
	r.h.Decision()
	set := r.sets[r.set(vpn, vm)]
	i := r.find(set, vm, pid, vpn)
	if (i >= 0) != found {
		r.h.Reportf("%s: shootdown (vm=%d pid=%d vpn=%#x) production found=%v, reference found=%v",
			r.name, vm, pid, vpn, found, i >= 0)
	}
	if i >= 0 {
		set[i] = refWay{}
	}
}

// InvalidateProcess implements pomtlb.Shadow: it drops every reference
// entry of (vm, pid) and diffs the removal count.
func (r *RefPOM) InvalidateProcess(vm addr.VMID, pid addr.PID, n int) {
	r.h.Decision()
	removed := 0
	for _, set := range r.sets {
		for i := range set {
			if set[i].valid && set[i].vm == vm && set[i].pid == pid {
				set[i] = refWay{}
				removed++
			}
		}
	}
	if removed != n {
		r.h.Reportf("%s: process flush dropped %d production entries, %d reference entries", r.name, n, removed)
	}
}
