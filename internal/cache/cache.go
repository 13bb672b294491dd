// Package cache implements the set-associative write-back data caches of
// Table 1 (L1I/L1D 32 KB 8-way, L2 256 KB 4-way, L3 8 MB 16-way) with true
// LRU replacement.
//
// The one non-standard feature — and the reason the paper's idea works at
// all — is that every resident line is tagged with what it holds: ordinary
// program data or a POM-TLB entry set. Because the POM-TLB is mapped into
// the physical address space, its 64 B sets are cached here like any other
// line; tagging lets the simulator report the TLB-entry hit ratios of
// Figure 9 and the cache-occupancy interference discussed in Section 5.1
// without changing the replacement behaviour.
package cache

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/lru"
	"repro/internal/stats"
)

// Kind says what a cache line holds. Replacement is kind-blind (the paper's
// design caches TLB entries "like data"); the kind exists purely so the
// statistics can be split.
type Kind uint8

const (
	// Data marks ordinary program load/store lines.
	Data Kind = iota
	// TLBEntry marks lines holding POM-TLB sets.
	TLBEntry

	numKinds = 2
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == TLBEntry {
		return "tlb-entry"
	}
	return "data"
}

// Priority selects the Section 5.1 "TLB-aware caching" policy: which line
// kind the replacement policy prefers to *retain*. The victim search first
// considers lines of the other kind (LRU among them) and only falls back
// to evicting a preferred line when the whole set holds the preferred
// kind.
type Priority uint8

const (
	// NoPriority is the paper's default: replacement is kind-blind.
	NoPriority Priority = iota
	// PreferTLB retains POM-TLB entry lines over data — for workloads
	// whose L2 TLB misses are more expensive than their data misses.
	PreferTLB
	// PreferData retains data lines over TLB entries.
	PreferData
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PreferTLB:
		return "prefer-tlb"
	case PreferData:
		return "prefer-data"
	}
	return "none"
}

// preferred returns the retained kind, and whether a preference exists.
func (p Priority) preferred() (Kind, bool) {
	switch p {
	case PreferTLB:
		return TLBEntry, true
	case PreferData:
		return Data, true
	}
	return Data, false
}

// Config describes one cache level.
type Config struct {
	// Name labels the level in stats output ("L1D", "L2", "L3").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes uint64
	// Ways is the associativity.
	Ways int
	// Latency is the hit latency in CPU cycles.
	Latency uint64
	// Priority is the Section 5.1 TLB-aware replacement policy.
	Priority Priority
}

// maxSizeBytes bounds SizeBytes. New allocates every way up front, at
// 8 B of host memory per 64 B line plus one 8 B recency word per set, so
// an unchecked size from a config file or an HTTP request would exhaust
// host memory before anything could reject it. 1 GiB costs 136 MiB of
// host memory at 16 ways, 256 MiB direct-mapped, and is 128× the 8 MB
// L3; the die-stacked caches of the l4-cache and dram-cache schemes are
// 16 MB by default.
const maxSizeBytes = 1 << 30

// Validate reports configuration errors. Ways is at most lru.MaxWays,
// since a set's recency order is one word of 4-bit way numbers; the
// widest Table 1 level, the L3, has 16.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes == 0 || c.Ways <= 0:
		return fmt.Errorf("cache %q: size and ways must be positive", c.Name)
	case c.Ways > lru.MaxWays:
		return fmt.Errorf("cache %q: %d %w", c.Name, c.Ways, lru.ErrTooManyWays)
	case c.SizeBytes > maxSizeBytes:
		return fmt.Errorf("cache %q: %d MiB exceeds the %d MiB limit", c.Name, c.SizeBytes>>20, maxSizeBytes>>20)
	case c.SizeBytes%(uint64(c.Ways)*addr.CacheLineSize) != 0:
		return fmt.Errorf("cache %q: size %d not divisible into %d ways of 64B lines", c.Name, c.SizeBytes, c.Ways)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() uint64 {
	return c.SizeBytes / (uint64(c.Ways) * addr.CacheLineSize)
}

// Table 1 cache levels.

// L1D returns the 32 KB 8-way 4-cycle data cache config.
func L1D() Config { return Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, Latency: 4} }

// L2 returns the 256 KB 4-way 12-cycle unified cache config.
func L2() Config { return Config{Name: "L2", SizeBytes: 256 << 10, Ways: 4, Latency: 12} }

// L3 returns the 8 MB 16-way 42-cycle shared cache config.
func L3() Config { return Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, Latency: 42} }

// Shadow observes every decision a cache level makes, in program order.
// The differential oracle (internal/oracle) attaches one per level and
// replays each operation against an independent recency-stack reference
// model, flagging disagreements in hit/miss outcomes or victim choice.
// A nil shadow costs one branch per operation.
type Shadow interface {
	// Access reports one lookup and its production outcome.
	Access(line uint64, write bool, kind Kind, hit bool)
	// Fill reports one fill and the production eviction decision.
	Fill(line uint64, write bool, kind Kind, ev Eviction)
	// Invalidate reports a single-line invalidation.
	Invalidate(line uint64, present, dirty bool)
	// InvalidateKind reports a kind-wide flush and how many lines dropped.
	InvalidateKind(kind Kind, n int)
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	// Valid is true when a line was actually displaced.
	Valid bool
	// Line is the displaced line address (address >> 6).
	Line uint64
	// Dirty is true when the displaced line needs a write-back.
	Dirty bool
	// Kind is what the displaced line held.
	Kind Kind
}

// Stats holds per-kind access counters for one cache level.
type Stats struct {
	// Access counts lookups split by line kind.
	Access [numKinds]stats.HitMiss
	// Evictions counts displaced lines by kind — how often TLB entries
	// push out data and vice versa (Section 5.1).
	Evictions [numKinds]uint64
	// Writebacks counts dirty evictions.
	Writebacks uint64
}

// hook wraps an attached Shadow behind a concrete pointer: the
// unobserved hot path pays a single-word nil check instead of a
// two-word interface comparison, and the virtual call sits behind a
// branch the CPU predicts never-taken when no oracle is attached.
type hook struct{ s Shadow }

// A resident line is stored as one packed word: (line+1)<<wordShift,
// the kind in bit 1 and the dirty flag in bit 0. The +1 keeps every
// resident word non-zero, so 0 marks an invalid way and a tag probe is a
// single shift and compare. Lines are host physical addresses >> 6, so
// line < 2^58 and line+1 fits the word's upper 62 bits.
const (
	dirtyBit  = 1 << 0
	kindShift = 1
	wordShift = 2
)

// pack encodes a resident line.
func pack(line uint64, dirty bool, kind Kind) uint64 {
	w := (line+1)<<wordShift | uint64(kind)<<kindShift
	if dirty {
		w |= dirtyBit
	}
	return w
}

// wordLine decodes the line address of a resident word.
func wordLine(w uint64) uint64 { return w>>wordShift - 1 }

// wordKind decodes the kind of a resident word.
func wordKind(w uint64) Kind { return Kind(w >> kindShift & 1) }

// Cache is one level of a write-back, write-allocate cache. All sets
// live in one contiguous array of Ways+1 words per set: set i's Ways
// packed line words, then its recency word, an lru.Order of the ways. A
// probe reads only the line words; a hit rewrites the recency word.
type Cache struct {
	cfg     Config
	sets    []uint64
	nways   int
	setMask uint64
	stats   Stats
	shadow  *hook

	// resident tracks how many currently-valid lines hold each kind, so
	// occupancy interference is observable.
	resident [numKinds]uint64
}

// New builds a cache level, reporting configuration errors.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, stride := cfg.Sets(), uint64(cfg.Ways)+1
	c := &Cache{
		cfg:     cfg,
		sets:    make([]uint64, n*stride),
		nways:   cfg.Ways,
		setMask: n - 1,
	}
	order := uint64(lru.NewOrder(cfg.Ways))
	for i := stride - 1; i < uint64(len(c.sets)); i += stride {
		c.sets[i] = order
	}
	return c, nil
}

// MustNew is New but panics on invalid configuration — the historical
// behavior, used by call sites whose configuration was already validated.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetShadow attaches (or, with nil, detaches) a lockstep observer.
func (c *Cache) SetShadow(s Shadow) {
	if s == nil {
		c.shadow = nil
		return
	}
	c.shadow = &hook{s}
}

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// setIndex maps a line address to its set.
func (c *Cache) setIndex(line uint64) uint64 { return line & c.setMask }

// block returns the packed line words of set si and its recency word.
func (c *Cache) block(si uint64) (words []uint64, order *uint64) {
	n := uint64(c.nways)
	b := c.sets[si*(n+1) : (si+1)*(n+1)]
	return b[:n:n], &b[n]
}

// touch makes way the most recently used of its set.
func (c *Cache) touch(order *uint64, way int) {
	*order = uint64(lru.Order(*order).Touch(way, c.nways))
}

// find returns the way holding line in words, or -1.
func find(words []uint64, line uint64) int {
	key := line + 1
	for i, w := range words {
		if w>>wordShift == key {
			return i
		}
	}
	return -1
}

// Lookup probes for a line without recording statistics or changing
// anything; used by tests and inclusive-hierarchy checks.
func (c *Cache) Lookup(line uint64) bool {
	words, _ := c.block(c.setIndex(line))
	return find(words, line) >= 0
}

// Access performs a load (write=false) or store (write=true) of the line
// and returns whether it hit. On a hit the LRU state advances and a store
// marks the line dirty. On a miss nothing is allocated — callers model the
// miss path explicitly and then Fill the line, mirroring how the simulator
// threads a miss down the hierarchy. The line must be below 2^58 (a host
// physical address >> 6), the limit of the packed encoding.
func (c *Cache) Access(line uint64, write bool, kind Kind) bool {
	words, order := c.block(c.setIndex(line))
	if i := find(words, line); i >= 0 {
		c.touch(order, i)
		if write {
			words[i] |= dirtyBit
		}
		c.stats.Access[kind].Hit()
		if c.shadow != nil {
			c.shadow.s.Access(line, write, kind, true)
		}
		return true
	}
	c.stats.Access[kind].Miss()
	if c.shadow != nil {
		c.shadow.s.Access(line, write, kind, false)
	}
	return false
}

// Fill inserts a line after a miss was resolved below, evicting a victim
// if needed, and returns the eviction (if any). A fill for a store arrives
// dirty. The new line takes the first invalid way; in a full set the
// victim is the LRU way, except under a Section 5.1 priority policy, where
// non-preferred lines are evicted first. The line must be below 2^58, as
// for Access.
func (c *Cache) Fill(line uint64, write bool, kind Kind) Eviction {
	words, order := c.block(c.setIndex(line))
	// One pass finds a present copy and the first invalid way. It covers
	// the whole set: stopping at an invalid way would miss a matching
	// line beyond it and install a duplicate.
	key := line + 1
	free := -1
	for i, w := range words {
		if w>>wordShift == key {
			// Already present (e.g. filled by a racing sibling): refresh.
			c.touch(order, i)
			if write {
				words[i] = w | dirtyBit
			}
			if c.shadow != nil {
				c.shadow.s.Fill(line, write, kind, Eviction{})
			}
			return Eviction{}
		}
		if w == 0 && free < 0 {
			free = i
		}
	}
	var ev Eviction
	v := free
	if v < 0 {
		v = c.victim(words, lru.Order(*order))
		w := words[v]
		ev = Eviction{Valid: true, Line: wordLine(w), Dirty: w&dirtyBit != 0, Kind: wordKind(w)}
		c.stats.Evictions[ev.Kind]++
		if ev.Dirty {
			c.stats.Writebacks++
		}
		c.resident[ev.Kind]--
	}
	words[v] = pack(line, write, kind)
	c.touch(order, v)
	c.resident[kind]++
	if c.shadow != nil {
		c.shadow.s.Fill(line, write, kind, ev)
	}
	return ev
}

// victim chooses the way a full set evicts: the least recently used way,
// or under a priority policy the least recently used non-preferred way
// when the set holds one. Every way of a full set was touched when it was
// filled, so the order ranks exactly the resident lines.
func (c *Cache) victim(words []uint64, order lru.Order) int {
	if pref, ok := c.cfg.Priority.preferred(); ok {
		for r := range words {
			if v := order.Way(r); wordKind(words[v]) != pref {
				return v
			}
		}
	}
	return order.Way(0)
}

// Invalidate drops a line if present, returning whether it was dirty. Used
// for TLB shootdowns of cached POM-TLB sets. The set's recency order is
// left alone: the freed way is refilled by index, and a fill touches it.
func (c *Cache) Invalidate(line uint64) (present, dirty bool) {
	words, _ := c.block(c.setIndex(line))
	if i := find(words, line); i >= 0 {
		w := words[i]
		c.resident[wordKind(w)]--
		present, dirty = true, w&dirtyBit != 0
		words[i] = 0
	}
	if c.shadow != nil {
		c.shadow.s.Invalidate(line, present, dirty)
	}
	return present, dirty
}

// InvalidateKind drops every line of the given kind (used by conservative
// flushes of cached POM-TLB sets) and returns the count dropped.
func (c *Cache) InvalidateKind(kind Kind) int {
	n := 0
	for si := uint64(0); si <= c.setMask; si++ {
		words, _ := c.block(si)
		for i, w := range words {
			if w != 0 && wordKind(w) == kind {
				words[i] = 0
				n++
			}
		}
	}
	c.resident[kind] -= uint64(n)
	if c.shadow != nil {
		c.shadow.s.InvalidateKind(kind, n)
	}
	return n
}

// CheckInvariants validates the cache's internal structural invariants:
// every non-zero word encodes a line, every valid line resides in the set
// its address indexes, each recency word ranks every way of its set
// exactly once, no line is duplicated across ways, and the per-kind
// residency counters match a recount. It returns the first violation
// found, or nil.
func (c *Cache) CheckInvariants() error {
	var recount [numKinds]uint64
	seen := make(map[uint64]uint64)
	for si := uint64(0); si <= c.setMask; si++ {
		words, order := c.block(si)
		if !lru.Order(*order).Valid(c.nways) {
			return fmt.Errorf("cache %q: set %d recency word %#x does not rank its %d ways",
				c.cfg.Name, si, *order, c.nways)
		}
		for wi, w := range words {
			if w == 0 {
				continue
			}
			if w>>wordShift == 0 {
				return fmt.Errorf("cache %q: set %d way %d holds flags %#x without a line",
					c.cfg.Name, si, wi, w)
			}
			line := wordLine(w)
			recount[wordKind(w)]++
			if want := c.setIndex(line); want != si {
				return fmt.Errorf("cache %q: line %#x resident in set %d, its address indexes set %d",
					c.cfg.Name, line, si, want)
			}
			if prev, dup := seen[line]; dup {
				return fmt.Errorf("cache %q: line %#x duplicated in sets %d and %d",
					c.cfg.Name, line, prev, si)
			}
			seen[line] = si
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if recount[k] != c.resident[k] {
			return fmt.Errorf("cache %q: resident[%s]=%d but recount found %d",
				c.cfg.Name, k, c.resident[k], recount[k])
		}
	}
	return nil
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears counters; contents are untouched.
func (c *Cache) ResetStats() { c.stats = Stats{} }
