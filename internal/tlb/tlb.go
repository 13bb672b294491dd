// Package tlb implements the on-chip SRAM TLBs of Table 1: per-core split
// L1 TLBs (64-entry 4 KB + 32-entry 2 MB, both 4-way) and a unified
// 1536-entry 12-way L2 TLB holding both page sizes. The same structure
// also backs the Shared_L2 comparison scheme (one large TLB shared by all
// cores) and supports the invalidation operations TLB shootdowns need.
package tlb

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/lru"
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

// maxEntries bounds Entries. New allocates every way up front, at 16 B
// of host memory per entry plus one 8 B recency word per set, so an
// unchecked count from a config file would exhaust host memory before
// anything could reject it. 1 Mi entries cost 16 MiB plus the recency
// words (24 MiB at most, direct-mapped), about 680× Table 1's
// 1536-entry L2 TLB, and hold the largest TLB a scheme builds: the
// shared L2 TLB of 256 cores (393,216 entries).
const maxEntries = 1 << 20

// Validate reports configuration errors. Ways is at most lru.MaxWays,
// since a set's recency order is one word of 4-bit way numbers; the
// widest Table 1 TLB, the L2, has 12.
func (c Config) Validate() error {
	switch {
	case c.Entries <= 0 || c.Ways <= 0:
		return fmt.Errorf("tlb %q: entries and ways must be positive", c.Name)
	case c.Ways > lru.MaxWays:
		return fmt.Errorf("tlb %q: %d %w", c.Name, c.Ways, lru.ErrTooManyWays)
	case c.Entries > maxEntries:
		return fmt.Errorf("tlb %q: %d entries exceed the %d-entry limit", c.Name, c.Entries, maxEntries)
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
}

// A way is one TTE, laid out as the TSB lays out its slots: a tag word
// naming the translation and a data word carrying it. An all-zero tag is
// an invalid way.
//
//	tag   bits 0-35 VPN, 36-37 page size, 40-55 VM ID, 63 valid
//	data  bits 0-39 PFN, 40-55 process ID
const (
	vpnBits   = 36
	sizeShift = 36
	vmShift   = 40
	validBit  = 1 << 63
	pfnBits   = 40
	pidShift  = 40
	vpnMask   = 1<<vpnBits - 1
	pfnMask   = 1<<pfnBits - 1
	// ownerMask selects the tag's valid bit and VM ID.
	ownerMask = validBit | 0xFFFF<<vmShift
)

// tag returns the tag word of (vm, vpn, size)'s translation.
func tag(vm addr.VMID, vpn uint64, size addr.PageSize) uint64 {
	return validBit | uint64(vm)<<vmShift | uint64(size)<<sizeShift | vpn
}

// decode returns the entry a valid way's tag and data words hold.
func decode(tag, data uint64) Entry {
	return Entry{
		VM: addr.VMID(tag >> vmShift), PID: addr.PID(data >> pidShift),
		VPN: tag & vpnMask, PFN: data & pfnMask,
		Size: addr.PageSize(tag >> sizeShift & 3), Valid: true,
	}
}

// find returns the way of a set holding (vm, pid, vpn, size)'s
// translation, or -1. A VPN too wide for the tag field is never resident.
func find(tags, data []uint64, vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) int {
	if vpn>>vpnBits != 0 {
		return -1
	}
	want := tag(vm, vpn, size)
	for i, w := range tags {
		if w == want && data[i]>>pidShift == uint64(pid) {
			return i
		}
	}
	return -1
}

// hook wraps an attached Shadow behind a concrete pointer: the
// unobserved hot path pays a single-word nil check instead of a
// two-word interface comparison, and the virtual call sits behind a
// branch the CPU predicts never-taken when no oracle is attached.
type hook struct{ s Shadow }

// TLB is a set-associative translation lookaside buffer for a single page
// size class, or for both when used as a unified structure (the page size
// is part of the tag and the set index is computed at each size). All
// sets live in one contiguous array of 2*Ways+1 words per set: set i's
// Ways tag words, then their Ways data words, then its recency word, an
// lru.Order of the ways. A probe compares tag words, and the data word's
// PID only on a tag match.
type TLB struct {
	cfg     Config
	sets    []uint64
	ways    int
	setMask uint64
	stats   stats.HitMiss
	shadow  *hook
}

// New creates a TLB, reporting configuration errors.
func New(cfg Config) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, stride := cfg.Entries/cfg.Ways, 2*cfg.Ways+1
	t := &TLB{
		cfg:     cfg,
		sets:    make([]uint64, n*stride),
		ways:    cfg.Ways,
		setMask: uint64(n - 1),
	}
	order := uint64(lru.NewOrder(cfg.Ways))
	for i := stride - 1; i < len(t.sets); i += stride {
		t.sets[i] = order
	}
	return t, nil
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

// block returns the tag words, data words and recency word of set si.
func (t *TLB) block(si uint64) (tags, data []uint64, order *uint64) {
	n := uint64(t.ways)
	b := t.sets[si*(2*n+1) : (si+1)*(2*n+1)]
	return b[:n:n], b[n : 2*n : 2*n], &b[2*n]
}

// setFor returns the set for a VPN.
func (t *TLB) setFor(vpn uint64) (tags, data []uint64, order *uint64) {
	return t.block(vpn & t.setMask)
}

// touch makes way the most recently used of its set.
func (t *TLB) touch(order *uint64, way int) {
	*order = uint64(lru.Order(*order).Touch(way, t.ways))
}

// lookupSize probes one page-size interpretation of va.
func (t *TLB) lookupSize(vm addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize) (Entry, bool) {
	vpn := va.VPN(size)
	tags, data, order := t.setFor(vpn)
	if i := find(tags, data, vm, pid, vpn, size); i >= 0 {
		t.touch(order, i)
		e := decode(tags[i], data[i])
		if t.shadow != nil {
			t.shadow.s.LookupSize(vm, pid, va, size, true, e)
		}
		return e, true
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
	tags, data, _ := t.setFor(vpn)
	return find(tags, data, vm, pid, vpn, size) >= 0
}

// Insert adds a translation, evicting the set's LRU entry when full. The
// displaced entry (if any) is returned so a caller can maintain a victim
// path or (for the POM-TLB hierarchy) write it down a level. A VPN or PFN
// too wide for its TTE field is a bug upstream (the trace boundary admits
// only canonical addresses), and panics rather than alias another page.
func (t *TLB) Insert(e Entry) (victim Entry, evicted bool) {
	if !e.Valid {
		return Entry{}, false
	}
	if e.VPN>>vpnBits != 0 || e.PFN>>pfnBits != 0 {
		panic(fmt.Sprintf("tlb: %v does not fit the %d-bit VPN and %d-bit PFN fields", e, vpnBits, pfnBits))
	}
	tags, data, order := t.setFor(e.VPN)
	want, word := tag(e.VM, e.VPN, e.Size), uint64(e.PID)<<pidShift|e.PFN
	// Scan the whole set for a match before choosing a victim: stopping
	// the search at an invalid way would miss a matching entry beyond it
	// and install a duplicate.
	free := -1
	for i, w := range tags {
		if w == want && data[i]>>pidShift == uint64(e.PID) {
			data[i] = word // refresh (PFN may have changed after remap)
			t.touch(order, i)
			if t.shadow != nil {
				t.shadow.s.Insert(e, Entry{}, false)
			}
			return Entry{}, false
		}
		if w == 0 && free < 0 {
			free = i
		}
	}
	v := free
	if v < 0 {
		// A full set: every way was touched when it was filled, so the
		// least recently used rank holds the LRU entry.
		v = lru.Order(*order).Way(0)
		victim, evicted = decode(tags[v], data[v]), true
	}
	tags[v], data[v] = want, word
	t.touch(order, v)
	if t.shadow != nil {
		t.shadow.s.Insert(e, victim, evicted)
	}
	return victim, evicted
}

// InvalidatePage drops one translation (TLB shootdown of a single page).
// The set's recency order is left alone: the freed way is refilled by
// index, and a fill touches it.
func (t *TLB) InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	tags, data, _ := t.setFor(vpn)
	i := find(tags, data, vm, pid, vpn, size)
	found := i >= 0
	if found {
		tags[i], data[i] = 0, 0
	}
	if t.shadow != nil {
		t.shadow.s.InvalidatePage(vm, pid, vpn, size, found)
	}
	return found
}

// InvalidateProcess drops every translation of (vm, pid) — the shootdown
// a process exit requires before its PID can be recycled (§2.2).
func (t *TLB) InvalidateProcess(vm addr.VMID, pid addr.PID) int {
	own := validBit | uint64(vm)<<vmShift
	n := 0
	for si := uint64(0); si <= t.setMask; si++ {
		tags, data, _ := t.block(si)
		for i, w := range tags {
			if w&ownerMask == own && data[i]>>pidShift == uint64(pid) {
				tags[i], data[i] = 0, 0
				n++
			}
		}
	}
	if t.shadow != nil {
		t.shadow.s.InvalidateProcess(vm, pid, n)
	}
	return n
}

// CheckInvariants validates the TLB's internal structural invariants:
// every way without a valid tag is all zero, every valid entry resides in
// the set its VPN indexes, each recency word ranks every way of its set
// exactly once, and no translation is duplicated anywhere in the
// structure. It returns the first violation found, or nil.
func (t *TLB) CheckInvariants() error {
	seen := make(map[Entry]uint64, t.cfg.Entries)
	for si := uint64(0); si <= t.setMask; si++ {
		tags, data, order := t.block(si)
		if !lru.Order(*order).Valid(t.ways) {
			return fmt.Errorf("tlb %q: set %d recency word %#x does not rank its %d ways",
				t.cfg.Name, si, *order, t.ways)
		}
		for wi, w := range tags {
			if w&validBit == 0 {
				if w != 0 || data[wi] != 0 {
					return fmt.Errorf("tlb %q: set %d way %d holds tag %#x and data %#x without its valid bit",
						t.cfg.Name, si, wi, w, data[wi])
				}
				continue
			}
			e := decode(w, data[wi])
			if want := e.VPN & t.setMask; want != si {
				return fmt.Errorf("tlb %q: entry %v resident in set %d, its VPN indexes set %d",
					t.cfg.Name, e, si, want)
			}
			k := e
			k.PFN = 0 // one translation per (VM, PID, VPN, size), whatever its frame
			if prev, dup := seen[k]; dup {
				return fmt.Errorf("tlb %q: %v duplicated in sets %d and %d",
					t.cfg.Name, e, prev, si)
			}
			seen[k] = si
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
