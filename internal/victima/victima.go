// Package victima models the Victima translation scheme (Kanellopoulos
// et al., arXiv 2310.04158): on an L2 TLB miss, translations are looked
// up in TLB blocks stored in the L2 *data* cache's ways instead of a
// dedicated SRAM or DRAM structure. The Store is the logical directory of
// those cache-resident TLB blocks: one set per potential block, holding
// the translation entries the block carries. The timing half lives in
// core — the store's blocks occupy real lines of the simulated L2 data
// cache (kind TLBEntry), so TLB blocks genuinely compete with data for
// capacity, and a block evicted under data pressure takes its
// translations with it (DropLine).
//
// Replacement within a block is PTE-aware, after the paper's observation
// that retaining high-coverage entries matters more than raw recency:
// a victim is chosen among 4 KB entries (LRU within them) while any
// exist, and only an all-2 MB set falls back to plain LRU.
package victima

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/stats"
	"repro/internal/tlb"
)

// Config describes one per-core store.
type Config struct {
	// Name labels the store in error messages.
	Name string
	// Sets is the number of cache-resident TLB blocks the store may own,
	// each occupying one L2 data-cache line. 0 derives it from the L2
	// data-cache geometry (one potential block per L2 set).
	Sets uint64
	// DonatedWays is the number of translation entries each block holds —
	// the per-set way budget donated to translations. 0 disables the
	// store entirely: the scheme degenerates to the exact baseline.
	DonatedWays int
}

// DefaultConfig returns the default donation: blocks derived from the L2
// data-cache geometry, two entries per block.
func DefaultConfig() Config {
	return Config{Name: "Victima", DonatedWays: 2}
}

// maxEntries bounds Sets × DonatedWays. New allocates every entry up
// front, at 40 B of host memory each, so an unchecked set count from a
// config file, or one derived from a large L2 (a 1 GiB direct-mapped L2
// has 16 Mi sets), would exhaust host memory before anything could
// reject it. 1 Mi entries per core is the SRAM TLBs' limit too, and 512×
// the default store of 1024 L2 sets × 2 entries.
const maxEntries = 1 << 20

// ErrTooManyEntries is the error Validate wraps for a store above
// maxEntries.
var ErrTooManyEntries = errors.New("entries exceed the 1048576-entry limit")

// Validate reports configuration errors. DonatedWays == 0 is legal (the
// degenerate baseline); a positive donation needs a power-of-two set
// count (or 0, derived later) of at most maxEntries entries.
func (c Config) Validate() error {
	switch {
	case c.DonatedWays < 0:
		return fmt.Errorf("victima %q: negative donated ways", c.Name)
	case c.DonatedWays > 8:
		return fmt.Errorf("victima %q: %d donated ways exceed a 64B block's 8 PTE slots", c.Name, c.DonatedWays)
	case c.DonatedWays > 0 && c.Sets > maxEntries/uint64(c.DonatedWays):
		return fmt.Errorf("victima %q: %d sets of %d %w", c.Name, c.Sets, c.DonatedWays, ErrTooManyEntries)
	case c.Sets != 0 && c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("victima %q: %d sets is not a power of two", c.Name, c.Sets)
	}
	return nil
}

// Shadow observes every decision the store makes, in program order, for
// the differential oracle. A nil shadow costs one branch per operation.
type Shadow interface {
	// Lookup reports one full (both page sizes) probe: the production
	// outcome and, on a hit, the entry and its set index.
	Lookup(vm addr.VMID, pid addr.PID, va addr.VA, hit bool, e tlb.Entry, si uint64)
	// Insert reports one insertion: the chosen set and the production
	// victim decision.
	Insert(e tlb.Entry, si uint64, victim tlb.Entry, evicted bool)
	// InvalidatePage reports a single-page shootdown and whether the page
	// was present.
	InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize, found bool)
	// InvalidateProcess reports a process flush and how many entries the
	// production model dropped.
	InvalidateProcess(vm addr.VMID, pid addr.PID, n int)
	// DropLine reports a cache-eviction flush of one block and how many
	// entries it carried.
	DropLine(si uint64, n int)
}

// hook wraps an attached Shadow behind a concrete pointer so the nil
// check devirtualizes (same pattern as tlb and cache).
type hook struct{ s Shadow }

// slot is one entry position of a block.
type slot struct {
	entry tlb.Entry
	lru   uint64
}

// Store is the logical directory of one core's cache-resident TLB
// blocks. Entries of both page sizes share the sets; the set index is the
// VPN at the entry's size modulo the set count, so 4 KB and 2 MB probes
// of the same address generally land in different sets.
type Store struct {
	cfg     Config
	slots   []slot // set i occupies slots[i*ways : (i+1)*ways]
	ways    int
	setMask uint64
	tick    uint64
	// base is the synthetic line-address base: block i lives at cache
	// line base+i of the owning core's L2 data cache.
	base   uint64
	count  int
	stats  stats.HitMiss
	shadow *hook
}

// New builds a store. lineBase is the synthetic cache-line address of
// block 0; callers must keep different cores' ranges disjoint and out of
// the simulated physical address space.
func New(cfg Config, lineBase uint64) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.DonatedWays > 0 && cfg.Sets == 0 {
		return nil, fmt.Errorf("victima %q: sets not resolved", cfg.Name)
	}
	return &Store{
		cfg:     cfg,
		slots:   make([]slot, cfg.Sets*uint64(cfg.DonatedWays)),
		ways:    cfg.DonatedWays,
		setMask: cfg.Sets - 1,
		base:    lineBase,
	}, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config, lineBase uint64) *Store {
	s, err := New(cfg, lineBase)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// Sets returns the block count.
func (s *Store) Sets() uint64 { return s.setMask + 1 }

// SetShadow attaches (or, with nil, detaches) a Shadow.
func (s *Store) SetShadow(sh Shadow) {
	if sh == nil {
		s.shadow = nil
		return
	}
	s.shadow = &hook{s: sh}
}

// Line returns the synthetic cache-line address of block si.
func (s *Store) Line(si uint64) uint64 { return s.base + si }

// SetOf inverts Line: the block index owning a cache-line address, if the
// line is one of this store's blocks.
func (s *Store) SetOf(line uint64) (uint64, bool) {
	if line < s.base || line > s.base+s.setMask {
		return 0, false
	}
	return line - s.base, true
}

func (s *Store) setIndex(vpn uint64) uint64 { return vpn & s.setMask }

func (s *Store) setFor(si uint64) []slot {
	return s.slots[si*uint64(s.ways) : (si+1)*uint64(s.ways)]
}

// lookupSize probes one page size without stats or shadow reporting.
func (s *Store) lookupSize(vm addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize) (tlb.Entry, uint64, bool) {
	vpn := va.VPN(size)
	si := s.setIndex(vpn)
	set := s.setFor(si)
	for i := range set {
		e := set[i].entry
		if e.Valid && e.VM == vm && e.PID == pid && e.VPN == vpn && e.Size == size {
			s.tick++
			set[i].lru = s.tick
			return e, si, true
		}
	}
	return tlb.Entry{}, 0, false
}

// Lookup probes both page sizes (4 KB, then 2 MB) for va.
func (s *Store) Lookup(vm addr.VMID, pid addr.PID, va addr.VA) (tlb.Entry, uint64, bool) {
	e, si, ok := s.lookupSize(vm, pid, va, addr.Page4K)
	if !ok {
		e, si, ok = s.lookupSize(vm, pid, va, addr.Page2M)
	}
	s.stats.Record(ok)
	if s.shadow != nil {
		s.shadow.s.Lookup(vm, pid, va, ok, e, si)
	}
	return e, si, ok
}

// LookupOnly reports presence without perturbing recency, statistics or
// the shadow (the conformance probe).
func (s *Store) LookupOnly(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	set := s.setFor(s.setIndex(vpn))
	for i := range set {
		e := set[i].entry
		if e.Valid && e.VM == vm && e.PID == pid && e.VPN == vpn && e.Size == size {
			return true
		}
	}
	return false
}

// Insert installs a translation, returning the block index it landed in
// and the PTE-aware replacement decision. Inserting an entry that is
// already present refreshes it in place.
func (s *Store) Insert(e tlb.Entry) (si uint64, victim tlb.Entry, evicted bool) {
	si = s.setIndex(e.VPN)
	set := s.setFor(si)
	s.tick++
	// Refresh in place.
	for i := range set {
		ee := set[i].entry
		if ee.Valid && ee.VM == e.VM && ee.PID == e.PID && ee.VPN == e.VPN && ee.Size == e.Size {
			set[i].entry = e
			set[i].lru = s.tick
			if s.shadow != nil {
				s.shadow.s.Insert(e, si, tlb.Entry{}, false)
			}
			return si, tlb.Entry{}, false
		}
	}
	v := s.victimIndex(set)
	if set[v].entry.Valid {
		victim, evicted = set[v].entry, true
	} else {
		s.count++
	}
	set[v].entry = e
	set[v].lru = s.tick
	if s.shadow != nil {
		s.shadow.s.Insert(e, si, victim, evicted)
	}
	return si, victim, evicted
}

// victimIndex chooses the slot to replace: an invalid slot, else the LRU
// 4 KB entry (small pages cover 512× less address space, so they are the
// cheap evictions), else the LRU slot overall.
func (s *Store) victimIndex(set []slot) int {
	small, any := -1, 0
	for i := range set {
		if !set[i].entry.Valid {
			return i
		}
		if set[i].lru < set[any].lru {
			any = i
		}
		if set[i].entry.Size == addr.Page4K && (small < 0 || set[i].lru < set[small].lru) {
			small = i
		}
	}
	if small >= 0 {
		return small
	}
	return any
}

// InvalidatePage drops one page's translation, reporting whether it was
// present.
func (s *Store) InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	set := s.setFor(s.setIndex(vpn))
	found := false
	for i := range set {
		e := set[i].entry
		if e.Valid && e.VM == vm && e.PID == pid && e.VPN == vpn && e.Size == size {
			set[i] = slot{}
			s.count--
			found = true
		}
	}
	if s.shadow != nil {
		s.shadow.s.InvalidatePage(vm, pid, vpn, size, found)
	}
	return found
}

// InvalidateProcess drops every entry of (vm, pid), returning the count.
func (s *Store) InvalidateProcess(vm addr.VMID, pid addr.PID) int {
	n := 0
	for i := range s.slots {
		e := s.slots[i].entry
		if e.Valid && e.VM == vm && e.PID == pid {
			s.slots[i] = slot{}
			n++
		}
	}
	s.count -= n
	if s.shadow != nil {
		s.shadow.s.InvalidateProcess(vm, pid, n)
	}
	return n
}

// DropLine invalidates the whole block backing a cache line — the
// coherence action when the L2 data cache evicts the block. Lines outside
// the store's range are ignored (defensively; core never passes one).
func (s *Store) DropLine(line uint64) int {
	si, ok := s.SetOf(line)
	if !ok {
		return 0
	}
	set := s.setFor(si)
	n := 0
	for i := range set {
		if set[i].entry.Valid {
			set[i] = slot{}
			n++
		}
	}
	s.count -= n
	if s.shadow != nil {
		s.shadow.s.DropLine(si, n)
	}
	return n
}

// Occupied reports whether block si holds at least one entry — the
// residency cross-check needs to know which blocks must be cache-resident.
func (s *Store) Occupied(si uint64) bool {
	for _, sl := range s.setFor(si) {
		if sl.entry.Valid {
			return true
		}
	}
	return false
}

// CheckInvariants validates internal consistency: the count matches the
// valid slots, every entry sits in the set its VPN selects, and no set
// holds duplicate (vm, pid, vpn, size) entries.
func (s *Store) CheckInvariants() error {
	valid := 0
	for si := uint64(0); si <= s.setMask; si++ {
		set := s.setFor(si)
		for i := range set {
			e := set[i].entry
			if !e.Valid {
				continue
			}
			valid++
			if s.setIndex(e.VPN) != si {
				return fmt.Errorf("victima %q: entry vpn %#x in set %d, belongs in %d",
					s.cfg.Name, e.VPN, si, s.setIndex(e.VPN))
			}
			for j := i + 1; j < len(set); j++ {
				o := set[j].entry
				if o.Valid && o.VM == e.VM && o.PID == e.PID && o.VPN == e.VPN && o.Size == e.Size {
					return fmt.Errorf("victima %q: duplicate entry vpn %#x size %v in set %d",
						s.cfg.Name, e.VPN, e.Size, si)
				}
			}
		}
	}
	if valid != s.count {
		return fmt.Errorf("victima %q: count %d but %d valid entries", s.cfg.Name, s.count, valid)
	}
	return nil
}

// Stats returns the lookup hit/miss counters.
func (s *Store) Stats() stats.HitMiss { return s.stats }

// ResetStats clears the counters (contents and recency stay warm).
func (s *Store) ResetStats() { s.stats = stats.HitMiss{} }
