// Package tlb implements the on-chip SRAM TLBs of Table 1: per-core split
// L1 TLBs (64-entry 4 KB + 32-entry 2 MB, both 4-way) and a unified
// 1536-entry 12-way L2 TLB holding both page sizes. The same structure
// also backs the Shared_L2 comparison scheme (one large TLB shared by all
// cores) and supports the invalidation operations TLB shootdowns need.
package tlb

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/stats"
)

// Entry is one cached translation: (VM, process, virtual page) → host frame.
// Unlike a page-table entry, it represents the *complete* 2D translation,
// which is exactly the property the POM-TLB exploits.
type Entry struct {
	VM    addr.VMID
	PID   addr.PID
	VPN   uint64 // virtual page number at Size granularity
	PFN   uint64 // host physical frame number at Size granularity
	Size  addr.PageSize
	Valid bool
}

// matches reports whether the entry translates the given page.
func (e Entry) matches(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	return e.Valid && e.VM == vm && e.PID == pid && e.VPN == vpn && e.Size == size
}

// Config describes one SRAM TLB.
type Config struct {
	// Name labels the TLB in stats output.
	Name string
	// Entries is the total entry count.
	Entries int
	// Ways is the associativity.
	Ways int
	// Latency is the lookup latency in cycles (L1 TLB lookups are folded
	// into the pipeline, so L1 configs use 0; the L2 TLB's 9-cycle cost is
	// the L1 miss penalty of Table 1).
	Latency uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Entries <= 0 || c.Ways <= 0:
		return fmt.Errorf("tlb %q: entries and ways must be positive", c.Name)
	case c.Entries%c.Ways != 0:
		return fmt.Errorf("tlb %q: %d entries not divisible by %d ways", c.Name, c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb %q: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// Table 1 TLB configurations.

// L1Small returns the 64-entry 4-way 4 KB L1 TLB.
func L1Small() Config { return Config{Name: "L1TLB-4K", Entries: 64, Ways: 4} }

// L1Large returns the 32-entry 4-way 2 MB L1 TLB.
func L1Large() Config { return Config{Name: "L1TLB-2M", Entries: 32, Ways: 4} }

// L1Huge returns the 1 GB L1 TLB (present in the Table 1 system; the
// paper's applications never use it).
func L1Huge() Config { return Config{Name: "L1TLB-1G", Entries: 4, Ways: 4} }

// L2Unified returns the 1536-entry 12-way unified L2 TLB.
func L2Unified() Config { return Config{Name: "L2TLB", Entries: 1536, Ways: 12, Latency: 9} }

// SharedL2 returns the Shared_L2 comparison scheme's TLB: the combined
// capacity of N cores' private L2 TLBs in one shared structure (modelled
// after Bhattacharjee et al.). The latency reflects the Figure 4 scaling
// argument: a 12K-entry (~200 KB) SRAM array is ≈2.4× slower than a
// 16 KB one, plus a cross-core interconnect round trip — which is exactly
// why the paper argues against simply growing SRAM TLBs.
func SharedL2(cores int) Config {
	return Config{
		Name:    "Shared-L2TLB",
		Entries: 1536 * cores,
		Ways:    12,
		Latency: 24,
	}
}

// Shadow observes every decision the TLB makes, in program order. The
// differential oracle (internal/oracle) attaches one per TLB and replays
// each operation against an independent map+LRU-list reference model,
// flagging any disagreement in hit/miss outcome, returned entry or
// eviction choice. A nil shadow costs one branch per operation.
type Shadow interface {
	// LookupSize reports one single-size probe: the production outcome
	// (hit and, on a hit, the entry) for (vm, pid, va) at size.
	LookupSize(vm addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize, hit bool, e Entry)
	// Insert reports one insertion and the production eviction decision.
	Insert(e Entry, victim Entry, evicted bool)
	// InvalidatePage reports a single-page shootdown and whether the page
	// was present.
	InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize, found bool)
	// InvalidateProcess reports a process flush and how many entries the
	// production model dropped.
	InvalidateProcess(vm addr.VMID, pid addr.PID, n int)
	// InvalidateAll reports a full flush.
	InvalidateAll()
}

// slot is one TLB way.
type slot struct {
	entry Entry
	lru   uint64
}

// hook wraps an attached Shadow behind a concrete pointer: the
// unobserved hot path pays a single-word nil check instead of a
// two-word interface comparison, and the virtual call sits behind a
// branch the CPU predicts never-taken when no oracle is attached.
type hook struct{ s Shadow }

// TLB is a set-associative translation lookaside buffer for a single page
// size class, or for both when used as a unified structure (the page size
// is part of the tag and the set index is computed at each size). All
// ways live in one contiguous slot array; set i occupies
// slots[i*Ways : (i+1)*Ways].
type TLB struct {
	cfg     Config
	slots   []slot
	ways    int
	setMask uint64
	clock   uint64
	stats   stats.HitMiss
	shadow  *hook
}

// New creates a TLB, reporting configuration errors.
func New(cfg Config) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Entries / cfg.Ways
	return &TLB{
		cfg:     cfg,
		slots:   make([]slot, cfg.Entries),
		ways:    cfg.Ways,
		setMask: uint64(n - 1),
	}, nil
}

// MustNew is New but panics on invalid configuration — the historical
// behavior, used by call sites whose configuration was already validated.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// SetShadow attaches (or, with nil, detaches) a lockstep observer.
func (t *TLB) SetShadow(s Shadow) {
	if s == nil {
		t.shadow = nil
		return
	}
	t.shadow = &hook{s}
}

// Latency returns the lookup latency in cycles.
func (t *TLB) Latency() uint64 { return t.cfg.Latency }

// setFor returns the set for a VPN.
func (t *TLB) setFor(vpn uint64) []slot {
	i := (vpn & t.setMask) * uint64(t.ways)
	return t.slots[i : i+uint64(t.ways)]
}

// lookupSize probes one page-size interpretation of va.
func (t *TLB) lookupSize(vm addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize) (Entry, bool) {
	vpn := va.VPN(size)
	set := t.setFor(vpn)
	for i := range set {
		if set[i].entry.matches(vm, pid, vpn, size) {
			t.clock++
			set[i].lru = t.clock
			if t.shadow != nil {
				t.shadow.s.LookupSize(vm, pid, va, size, true, set[i].entry)
			}
			return set[i].entry, true
		}
	}
	if t.shadow != nil {
		t.shadow.s.LookupSize(vm, pid, va, size, false, Entry{})
	}
	return Entry{}, false
}

// Lookup probes both page-size interpretations of va (hardware probes the
// split/unified structures in parallel) and records one hit or miss.
func (t *TLB) Lookup(vm addr.VMID, pid addr.PID, va addr.VA) (Entry, bool) {
	if e, ok := t.lookupSize(vm, pid, va, addr.Page4K); ok {
		t.stats.Hit()
		return e, true
	}
	if e, ok := t.lookupSize(vm, pid, va, addr.Page2M); ok {
		t.stats.Hit()
		return e, true
	}
	if e, ok := t.lookupSize(vm, pid, va, addr.Page1G); ok {
		t.stats.Hit()
		return e, true
	}
	t.stats.Miss()
	return Entry{}, false
}

// LookupOnly probes for a specific page size without touching statistics or
// LRU state; used by consistency checks in tests.
func (t *TLB) LookupOnly(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	for _, s := range t.setFor(vpn) {
		if s.entry.matches(vm, pid, vpn, size) {
			return true
		}
	}
	return false
}

// Insert adds a translation, evicting the set's LRU entry when full. The
// displaced entry (if any) is returned so a caller can maintain a victim
// path or (for the POM-TLB hierarchy) write it down a level.
func (t *TLB) Insert(e Entry) (victim Entry, evicted bool) {
	if !e.Valid {
		return Entry{}, false
	}
	t.clock++
	set := t.setFor(e.VPN)
	// Scan the whole set for a match before choosing a victim: stopping
	// the search at an invalid way would miss a matching entry beyond it
	// and install a duplicate.
	for i := range set {
		s := &set[i]
		if s.entry.matches(e.VM, e.PID, e.VPN, e.Size) {
			s.entry = e // refresh (PFN may have changed after remap)
			s.lru = t.clock
			if t.shadow != nil {
				t.shadow.s.Insert(e, Entry{}, false)
			}
			return Entry{}, false
		}
	}
	vi := 0
	for i := range set {
		if !set[i].entry.Valid {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	s := &set[vi]
	if s.entry.Valid {
		victim, evicted = s.entry, true
	}
	s.entry = e
	s.lru = t.clock
	if t.shadow != nil {
		t.shadow.s.Insert(e, victim, evicted)
	}
	return victim, evicted
}

// InvalidatePage drops one translation (TLB shootdown of a single page).
func (t *TLB) InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	found := false
	set := t.setFor(vpn)
	for i := range set {
		if set[i].entry.matches(vm, pid, vpn, size) {
			set[i] = slot{}
			found = true
			break
		}
	}
	if t.shadow != nil {
		t.shadow.s.InvalidatePage(vm, pid, vpn, size, found)
	}
	return found
}

// InvalidateProcess drops every translation of (vm, pid) — the shootdown
// a process exit requires before its PID can be recycled (§2.2).
func (t *TLB) InvalidateProcess(vm addr.VMID, pid addr.PID) int {
	n := 0
	for i := range t.slots {
		e := t.slots[i].entry
		if e.Valid && e.VM == vm && e.PID == pid {
			t.slots[i] = slot{}
			n++
		}
	}
	if t.shadow != nil {
		t.shadow.s.InvalidateProcess(vm, pid, n)
	}
	return n
}

// InvalidateAll flushes the TLB.
func (t *TLB) InvalidateAll() {
	for i := range t.slots {
		t.slots[i] = slot{}
	}
	if t.shadow != nil {
		t.shadow.s.InvalidateAll()
	}
}

// CheckInvariants validates the TLB's internal structural invariants:
// every valid entry resides in the set its VPN indexes, LRU stamps are
// unique within a set and never ahead of the TLB clock (the LRU stack
// property), and no translation is duplicated anywhere in the structure.
// It returns the first violation found, or nil.
func (t *TLB) CheckInvariants() error {
	type key struct {
		vm   addr.VMID
		pid  addr.PID
		vpn  uint64
		size addr.PageSize
	}
	seen := make(map[key]uint64, t.cfg.Entries)
	numSets := len(t.slots) / t.ways
	for si := 0; si < numSets; si++ {
		set := t.slots[si*t.ways : (si+1)*t.ways]
		stamps := make(map[uint64]int, len(set))
		for wi := range set {
			e := set[wi].entry
			if !e.Valid {
				continue
			}
			if want := e.VPN & t.setMask; want != uint64(si) {
				return fmt.Errorf("tlb %q: entry %v resident in set %d, its VPN indexes set %d",
					t.cfg.Name, e, si, want)
			}
			lru := set[wi].lru
			if lru > t.clock {
				return fmt.Errorf("tlb %q: set %d way %d LRU stamp %d ahead of clock %d",
					t.cfg.Name, si, wi, lru, t.clock)
			}
			if prev, dup := stamps[lru]; dup {
				return fmt.Errorf("tlb %q: set %d ways %d and %d share LRU stamp %d",
					t.cfg.Name, si, prev, wi, lru)
			}
			stamps[lru] = wi
			k := key{e.VM, e.PID, e.VPN, e.Size}
			if prev, dup := seen[k]; dup {
				return fmt.Errorf("tlb %q: %v duplicated in sets %d and %d",
					t.cfg.Name, e, prev, si)
			}
			seen[k] = uint64(si)
		}
	}
	return nil
}

// Stats returns the hit/miss counters.
func (t *TLB) Stats() stats.HitMiss { return t.stats }

// ResetStats clears counters; contents are untouched.
func (t *TLB) ResetStats() { t.stats = stats.HitMiss{} }

// SplitL1 models the per-core trio of L1 TLBs — one per page size, as in
// Skylake (Table 1: separate L1 TLBs for 4 KB, 2 MB and 1 GB, 9-cycle miss
// penalty into the unified L2).
type SplitL1 struct {
	Small *TLB
	Large *TLB
	Huge  *TLB
}

// NewSplitL1 builds a split L1 from per-size configurations, reporting
// configuration errors.
func NewSplitL1(small, large, huge Config) (*SplitL1, error) {
	s, err := New(small)
	if err != nil {
		return nil, err
	}
	l, err := New(large)
	if err != nil {
		return nil, err
	}
	h, err := New(huge)
	if err != nil {
		return nil, err
	}
	return &SplitL1{Small: s, Large: l, Huge: h}, nil
}

// MustNewSplitL1 is NewSplitL1 but panics on invalid configuration,
// following the New/MustNew convention.
func MustNewSplitL1(small, large, huge Config) *SplitL1 {
	l, err := NewSplitL1(small, large, huge)
	if err != nil {
		panic(err)
	}
	return l
}

// DefaultSplitL1 builds the Table 1 L1 TLB set.
func DefaultSplitL1() *SplitL1 {
	return MustNewSplitL1(L1Small(), L1Large(), L1Huge())
}

// Lookup probes all structures in parallel (single cycle in hardware).
func (l *SplitL1) Lookup(vm addr.VMID, pid addr.PID, va addr.VA) (Entry, bool) {
	if e, ok := l.Small.lookupSize(vm, pid, va, addr.Page4K); ok {
		l.Small.stats.Hit()
		return e, true
	}
	if e, ok := l.Large.lookupSize(vm, pid, va, addr.Page2M); ok {
		l.Large.stats.Hit()
		return e, true
	}
	if e, ok := l.Huge.lookupSize(vm, pid, va, addr.Page1G); ok {
		l.Huge.stats.Hit()
		return e, true
	}
	l.Small.stats.Miss()
	return Entry{}, false
}

// structFor returns the structure holding entries of the given size.
func (l *SplitL1) structFor(size addr.PageSize) *TLB {
	switch size {
	case addr.Page2M:
		return l.Large
	case addr.Page1G:
		return l.Huge
	}
	return l.Small
}

// Insert routes the entry to the structure for its page size.
func (l *SplitL1) Insert(e Entry) {
	l.structFor(e.Size).Insert(e)
}

// InvalidatePage shoots one page out of whichever structure holds it.
func (l *SplitL1) InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	return l.structFor(size).InvalidatePage(vm, pid, vpn, size)
}

// InvalidateProcess drops every translation of (vm, pid) from all
// structures, returning how many entries were removed.
func (l *SplitL1) InvalidateProcess(vm addr.VMID, pid addr.PID) int {
	return l.Small.InvalidateProcess(vm, pid) + l.Large.InvalidateProcess(vm, pid) +
		l.Huge.InvalidateProcess(vm, pid)
}

// InvalidateAll flushes all structures.
func (l *SplitL1) InvalidateAll() {
	l.Small.InvalidateAll()
	l.Large.InvalidateAll()
	l.Huge.InvalidateAll()
}
