package pagetable

import (
	"fmt"

	"repro/internal/addr"
)

// Key words of the walker caches: bit 63 marks a valid entry, bits 47-62
// hold the VM ID, and the bits below hold a PSC's process ID (31-46) and
// VA prefix (0-30; a 48-bit VA's deepest prefix has 27 bits) or the
// nested TLB's guest frame number (0-46). A zero key is an invalid entry.
const (
	keyValid    = 1 << 63
	keyVMShift  = 47
	keyPIDShift = 31
	prefixBits  = 31
	gpfnBits    = 47
)

// assoc is a small fully-associative LRU cache from a key word to a value
// word. The keys sit in one contiguous array that a probe scans; values
// and LRU stamps sit in parallel arrays. At up to 1024 entries (the
// walker's limit) the caches keep stamps rather than a recency word.
type assoc struct {
	keys, vals, lru []uint64
	clock           uint64
}

func newAssoc(capacity int) assoc {
	return assoc{
		keys: make([]uint64, capacity),
		vals: make([]uint64, capacity),
		lru:  make([]uint64, capacity),
	}
}

// lookup returns the value cached under key and makes it the most
// recently used entry.
func (a *assoc) lookup(key uint64) (uint64, bool) {
	for i, k := range a.keys {
		if k == key {
			a.clock++
			a.lru[i] = a.clock
			return a.vals[i], true
		}
	}
	return 0, false
}

// insert caches key → val. A present key is refreshed; otherwise the
// entry goes to the first invalid slot, or replaces the LRU entry when
// every slot before it is valid. The scan stops at the first invalid
// slot: entries fill in index order and only InvalidateAll frees them,
// so no valid entry lies beyond it.
func (a *assoc) insert(key, val uint64) {
	a.clock++
	vi := 0
	for i, k := range a.keys {
		if k == key {
			a.vals[i] = val
			a.lru[i] = a.clock
			return
		}
		if k == 0 {
			vi = i
			break
		}
		if a.lru[i] < a.lru[vi] {
			vi = i
		}
	}
	a.keys[vi], a.vals[vi], a.lru[vi] = key, val, a.clock
}

// invalidateAll drops every entry; the values and stamps of invalid
// entries are never read.
func (a *assoc) invalidateAll() { clear(a.keys) }

// PSC is one page-structure cache (MMU cache) level: a tiny fully-
// associative cache from a virtual-address prefix to the address of the
// radix node that serves the next level of the walk, letting the walker
// skip the upper levels (Table 1: PML4 2 entries, PDP 4, PDE 32, 2 cycles).
type PSC struct{ assoc }

// NewPSC creates a page-structure cache with the given capacity.
func NewPSC(capacity int) *PSC {
	if capacity <= 0 {
		panic("pagetable: PSC capacity must be positive")
	}
	return &PSC{newAssoc(capacity)}
}

// pscKey is the key word of (vm, pid, prefix).
func pscKey(vm addr.VMID, pid addr.PID, prefix uint64) uint64 {
	return keyValid | uint64(vm)<<keyVMShift | uint64(pid)<<keyPIDShift | prefix
}

// Lookup returns the cached node address for the prefix. A prefix too
// wide for the key field is never cached.
func (p *PSC) Lookup(vm addr.VMID, pid addr.PID, prefix uint64) (uint64, bool) {
	if prefix>>prefixBits != 0 {
		return 0, false
	}
	return p.lookup(pscKey(vm, pid, prefix))
}

// Insert caches prefix → node, evicting the LRU entry when full. A prefix
// too wide for the key field comes from a non-canonical address, a bug
// upstream (the trace boundary admits only canonical addresses), and
// panics rather than alias another prefix.
func (p *PSC) Insert(vm addr.VMID, pid addr.PID, prefix, node uint64) {
	if prefix>>prefixBits != 0 {
		panic(fmt.Sprintf("pagetable: VA prefix %#x does not fit the %d-bit PSC key field", prefix, prefixBits))
	}
	p.insert(pscKey(vm, pid, prefix), node)
}

// InvalidateAll flushes the cache (context switch / shootdown).
func (p *PSC) InvalidateAll() { p.invalidateAll() }

// NestedTLB caches completed gPA→hPA translations at 4 KB granularity so
// repeated host-dimension walks of hot guest frames are skipped — the
// "nested TLB" of Intel's EPT hardware. Fully associative, LRU.
type NestedTLB struct{ assoc }

// NewNestedTLB creates a nested TLB with the given capacity.
func NewNestedTLB(capacity int) *NestedTLB {
	if capacity <= 0 {
		panic("pagetable: nested TLB capacity must be positive")
	}
	return &NestedTLB{newAssoc(capacity)}
}

// Lookup translates a guest-physical frame number. A frame number too
// wide for the key field is never cached.
func (n *NestedTLB) Lookup(vm addr.VMID, gpfn uint64) (uint64, bool) {
	if gpfn>>gpfnBits != 0 {
		return 0, false
	}
	return n.lookup(keyValid | uint64(vm)<<keyVMShift | gpfn)
}

// Insert caches gpfn → host frame base. A frame number too wide for the
// key field panics rather than alias another frame.
func (n *NestedTLB) Insert(vm addr.VMID, gpfn, hbase uint64) {
	if gpfn>>gpfnBits != 0 {
		panic(fmt.Sprintf("pagetable: guest frame %#x does not fit the %d-bit nested TLB key field", gpfn, gpfnBits))
	}
	n.insert(keyValid|uint64(vm)<<keyVMShift|gpfn, hbase)
}

// InvalidateAll flushes the nested TLB.
func (n *NestedTLB) InvalidateAll() { n.invalidateAll() }
