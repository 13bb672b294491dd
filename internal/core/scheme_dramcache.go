package core

import (
	"repro/internal/addr"
	"repro/internal/dramcache"
	"repro/internal/oracle"
	"repro/internal/tlb"
)

// stackedScheme is the shared half of the two schemes that spend the
// POM-TLB's die-stacked silicon as a data cache instead of a TLB
// (l4-cache and dram-cache): Build puts one dramcache.Cache on
// System.stacked, System.access probes and fills it, and translations
// take the unmodified baseline walk.
type stackedScheme struct{ baseScheme }

// CalibratedWalks is false: the entire benefit lives inside the walk
// (shorter PTE reads), which a measured-baseline walk charge would erase.
func (stackedScheme) CalibratedWalks() bool { return false }

func (stackedScheme) Path(s *System, c *coreState, va addr.VA) tlb.Entry {
	return s.baselinePath(c, va)
}

func (stackedScheme) AttachSelfCheck(s *System, sc *SelfCheck) {
	oracle.NewRefCache(sc.h, s.stacked.Tags())
	oracle.NewRefDRAM(sc.h, s.stacked.Channel())
}

func (stackedScheme) CheckInvariants(s *System) error { return s.stacked.CheckInvariants() }
func (stackedScheme) ResetStats(s *System)            { s.stacked.ResetStats() }

// dramCacheScheme registers the die-stacked DRAM cache competitor (after
// Patil et al., arXiv 2002.01073): the same stacked capacity the POM-TLB
// spends on translations instead serves the page walker's PTE reads, so
// walks get shorter rather than being eliminated. Data references bypass
// it — the study isolates the translation benefit of the silicon.
type dramCacheScheme struct{ stackedScheme }

func (dramCacheScheme) Name() Mode                 { return DRAMCache }
func (dramCacheScheme) Validate(cfg *Config) error { return cfg.DCache.Validate() }
func (dramCacheScheme) Build(s *System)            { s.stacked = dramcache.MustNew(s.cfg.DCache) }
func (dramCacheScheme) Aggregate(s *System, res *Result) {
	res.DCache = s.stacked.Stats()
	res.DCacheDRAM = s.stacked.DRAMStats()
}
