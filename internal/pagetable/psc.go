package pagetable

import (
	"repro/internal/addr"
	"repro/internal/stats"
)

// PSC is one page-structure cache (MMU cache) level: a tiny fully-
// associative cache from a virtual-address prefix to the address of the
// radix node that serves the next level of the walk, letting the walker
// skip the upper levels (Table 1: PML4 2 entries, PDP 4, PDE 32, 2 cycles).
type PSC struct {
	name    string
	entries []pscEntry
	clock   uint64
	stats   stats.HitMiss
}

type pscEntry struct {
	vm     addr.VMID
	pid    addr.PID
	prefix uint64
	node   uint64 // node base address in the table's address space
	valid  bool
	lru    uint64
}

// NewPSC creates a page-structure cache with the given capacity.
func NewPSC(name string, capacity int) *PSC {
	if capacity <= 0 {
		panic("pagetable: PSC capacity must be positive")
	}
	return &PSC{name: name, entries: make([]pscEntry, capacity)}
}

// Lookup returns the cached node address for the prefix.
func (p *PSC) Lookup(vm addr.VMID, pid addr.PID, prefix uint64) (uint64, bool) {
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.vm == vm && e.pid == pid && e.prefix == prefix {
			p.clock++
			e.lru = p.clock
			p.stats.Hit()
			return e.node, true
		}
	}
	p.stats.Miss()
	return 0, false
}

// Insert caches prefix → node, evicting the LRU entry when full.
func (p *PSC) Insert(vm addr.VMID, pid addr.PID, prefix, node uint64) {
	p.clock++
	vi := 0
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.vm == vm && e.pid == pid && e.prefix == prefix {
			e.node = node
			e.lru = p.clock
			return
		}
		if !e.valid {
			vi = i
			break
		}
		if e.lru < p.entries[vi].lru {
			vi = i
		}
	}
	p.entries[vi] = pscEntry{vm: vm, pid: pid, prefix: prefix, node: node, valid: true, lru: p.clock}
}

// InvalidateAll flushes the cache (context switch / shootdown).
func (p *PSC) InvalidateAll() {
	for i := range p.entries {
		p.entries[i] = pscEntry{}
	}
}

// NestedTLB caches completed gPA→hPA translations at 4 KB granularity so
// repeated host-dimension walks of hot guest frames are skipped — the
// "nested TLB" of Intel's EPT hardware. Fully associative, LRU.
type NestedTLB struct {
	entries []nestedEntry
	clock   uint64
	stats   stats.HitMiss
}

type nestedEntry struct {
	vm    addr.VMID
	gpfn  uint64
	hbase uint64 // host address of the 4 KB frame
	valid bool
	lru   uint64
}

// NewNestedTLB creates a nested TLB with the given capacity.
func NewNestedTLB(capacity int) *NestedTLB {
	if capacity <= 0 {
		panic("pagetable: nested TLB capacity must be positive")
	}
	return &NestedTLB{entries: make([]nestedEntry, capacity)}
}

// Lookup translates a guest-physical frame number.
func (n *NestedTLB) Lookup(vm addr.VMID, gpfn uint64) (uint64, bool) {
	for i := range n.entries {
		e := &n.entries[i]
		if e.valid && e.vm == vm && e.gpfn == gpfn {
			n.clock++
			e.lru = n.clock
			n.stats.Hit()
			return e.hbase, true
		}
	}
	n.stats.Miss()
	return 0, false
}

// Insert caches gpfn → host frame base.
func (n *NestedTLB) Insert(vm addr.VMID, gpfn, hbase uint64) {
	n.clock++
	vi := 0
	for i := range n.entries {
		e := &n.entries[i]
		if e.valid && e.vm == vm && e.gpfn == gpfn {
			e.hbase = hbase
			e.lru = n.clock
			return
		}
		if !e.valid {
			vi = i
			break
		}
		if e.lru < n.entries[vi].lru {
			vi = i
		}
	}
	n.entries[vi] = nestedEntry{vm: vm, gpfn: gpfn, hbase: hbase, valid: true, lru: n.clock}
}

// InvalidateAll flushes the nested TLB.
func (n *NestedTLB) InvalidateAll() {
	for i := range n.entries {
		n.entries[i] = nestedEntry{}
	}
}
