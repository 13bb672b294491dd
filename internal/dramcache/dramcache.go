// Package dramcache models a die-stacked DRAM data cache: an SRAM tag
// directory (a cache.Cache) whose hits cost one access on a die-stacked
// dram.Channel, probed after the on-chip caches miss and filled from
// backing memory. The core spends the POM-TLB's stacked silicon on it
// two ways: the l4-cache scheme (the paper's §2.2 trade-off) lets it
// serve every reference, and the dram-cache scheme (after Patil et al.,
// arXiv 2002.01073) lets it serve only the page walker's PTE reads,
// shortening every walk rather than eliminating walks the way a
// translation structure does.
package dramcache

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dram"
)

// Config describes the cache.
type Config struct {
	// SizeBytes is the capacity of the stacked array.
	SizeBytes uint64
	// Ways is the tag directory's associativity.
	Ways int
	// DRAM times the die-stacked array itself.
	DRAM dram.Config
}

// DefaultConfig returns a POM-TLB-comparable machine: the same 16 MB of
// die-stacked silicon the paper's headline TLB spends, on the same
// stacked-DRAM timing.
func DefaultConfig() Config {
	return Config{
		SizeBytes: 16 << 20,
		Ways:      16,
		DRAM:      dram.DieStacked(),
	}
}

// tagConfig materializes the tag-directory cache config. The directory's
// own SRAM probe is folded into the miss path already charged (the L3
// lookup preceding it), so its Latency is 0 and a hit costs exactly one
// die-stacked access.
func (c Config) tagConfig() cache.Config {
	return cache.Config{Name: "stacked", SizeBytes: c.SizeBytes, Ways: c.Ways}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.tagConfig().Validate(); err != nil {
		return fmt.Errorf("dramcache: %w", err)
	}
	if err := c.DRAM.Validate(); err != nil {
		return fmt.Errorf("dramcache: %w", err)
	}
	return nil
}

// Cache is the die-stacked DRAM cache.
type Cache struct {
	tags *cache.Cache
	ch   *dram.Channel
}

// New builds the cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		tags: cache.MustNew(cfg.tagConfig()),
		ch:   dram.MustNew(cfg.DRAM),
	}, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Cache {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Tags exposes the tag directory (for the differential oracle).
func (d *Cache) Tags() *cache.Cache { return d.tags }

// Channel exposes the die-stacked channel (for the differential oracle).
func (d *Cache) Channel() *dram.Channel { return d.ch }

// Probe looks the line up at time now. On a hit it returns the
// die-stacked access latency and true; on a miss it returns (0, false)
// and the caller fetches from backing memory.
func (d *Cache) Probe(now uint64, a addr.HPA, write bool) (uint64, bool) {
	if d.tags.Access(a.Line(), write, cache.Data) {
		return d.ch.Access(now, a.LineBase(), false).Latency, true
	}
	return 0, false
}

// Fill installs a line fetched from backing memory. The stacked write is
// off the critical path, so no latency is returned; a dirty victim line
// is handed back for the caller to retire to backing memory.
func (d *Cache) Fill(now uint64, a addr.HPA) (victim uint64, dirty bool) {
	ev := d.tags.Fill(a.Line(), false, cache.Data)
	d.ch.Access(now, a.LineBase(), true)
	if ev.Valid && ev.Dirty {
		return ev.Line, true
	}
	return 0, false
}

// CheckInvariants validates both halves.
func (d *Cache) CheckInvariants() error {
	if err := d.tags.CheckInvariants(); err != nil {
		return err
	}
	return d.ch.CheckInvariants()
}

// Stats returns the tag directory's counters.
func (d *Cache) Stats() cache.Stats { return d.tags.Stats() }

// DRAMStats returns the die-stacked channel's counters.
func (d *Cache) DRAMStats() dram.Stats { return d.ch.Stats() }

// ResetStats clears both halves' counters (contents stay warm).
func (d *Cache) ResetStats() {
	d.tags.ResetStats()
	d.ch.ResetStats()
}
