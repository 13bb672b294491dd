package core

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dramcache"
	"repro/internal/oracle"
	"repro/internal/pomtlb"
	"repro/internal/tlb"
	"repro/internal/tsb"
)

// This file registers the paper's own schemes: the walk-only baseline,
// the POM-TLB (with and without data-cache probing), the Shared_L2 and
// TSB comparison points, and the §2.2 L4 data-cache trade-off machine.

// baselineScheme owns no large translation structure: an L2 TLB miss
// starts the (2D) page walk immediately.
type baselineScheme struct{ baseScheme }

func (baselineScheme) Name() Mode { return Baseline }

// CalibratedWalks is false: the baseline is the measured machine itself,
// so its walks are always simulated and it models no improvement over
// itself.
func (baselineScheme) CalibratedWalks() bool { return false }

func (baselineScheme) Path(s *System, c *coreState, va addr.VA) tlb.Entry {
	return s.baselinePath(c, va)
}

// pomSchemeBase is the shared implementation of the two POM-TLB modes.
// The SharedL2 seed hook below is deliberately absent while POM-TLB and
// TSB seed: the shared TLB's capacity (12 K entries at 8 cores) is far
// below the big footprints, so in steady state a streamed page would long
// since have been evicted — seeding immediately before the probe would
// fake a hit the real structure could not deliver. The POM-TLB and TSB
// hold ≥ 0.5 M entries and do retain every page at these footprints.
type pomSchemeBase struct{ baseScheme }

func (pomSchemeBase) Validate(cfg *Config) error { return cfg.POM.Validate() }
func (pomSchemeBase) Build(s *System)            { s.pom = pomtlb.New(s.cfg.POM) }
func (pomSchemeBase) Path(s *System, c *coreState, va addr.VA) tlb.Entry {
	return s.pomPath(c, va)
}
func (pomSchemeBase) Seeds() bool { return true }
func (pomSchemeBase) Seed(s *System, c *coreState, va addr.VA, size addr.PageSize, pfn uint64) {
	if size == addr.Page1G {
		return // the POM-TLB has no 1 GB partition
	}
	s.pom.Partition(size).Insert(pomtlb.Entry{
		Valid: true, VM: c.vmid, PID: c.pid,
		VPN: va.VPN(size), PFN: pfn, Size: size,
	})
}
func (pomSchemeBase) Shootdown(s *System, vmid addr.VMID, pid addr.PID, va addr.VA, vpn uint64, size addr.PageSize) {
	if size == addr.Page1G {
		return
	}
	s.pom.InvalidatePage(vmid, pid, vpn, size)
	// Cached copies of the set line are stale once the set changes.
	line := s.pom.Partition(size).SetAddr(va, vmid).Line()
	for _, c := range s.cores {
		c.l1d.Invalidate(line)
		c.l2.Invalidate(line)
	}
	s.l3.Invalidate(line)
}
func (pomSchemeBase) ProcessExit(s *System, vmid addr.VMID, pid addr.PID) int {
	n := s.pom.InvalidateProcess(vmid, pid)
	for _, c := range s.cores {
		c.l1d.InvalidateKind(cache.TLBEntry)
		c.l2.InvalidateKind(cache.TLBEntry)
	}
	s.l3.InvalidateKind(cache.TLBEntry)
	return n
}
func (pomSchemeBase) Holds(s *System, vmid addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize) bool {
	if size == addr.Page1G {
		return false
	}
	vpn := va.VPN(size)
	var buf [8]pomtlb.Entry
	for _, e := range s.pom.Partition(size).AppendSet(buf[:0], va, vmid) {
		if e.Valid && e.VM == vmid && e.PID == pid && e.VPN == vpn {
			return true
		}
	}
	return false
}
func (pomSchemeBase) AttachSelfCheck(s *System, sc *SelfCheck) {
	oracle.NewRefPOM(sc.h, s.pom.Small)
	oracle.NewRefPOM(sc.h, s.pom.Large)
	oracle.NewRefDRAM(sc.h, s.pom.DRAMChannel())
}
func (pomSchemeBase) CheckInvariants(s *System) error { return s.pom.CheckInvariants() }
func (pomSchemeBase) ResetStats(s *System)            { s.pom.ResetStats() }
func (pomSchemeBase) Aggregate(s *System, res *Result) {
	res.POMDRAMStats = s.pom.DRAMStats()
}

type pomScheme struct{ pomSchemeBase }

func (pomScheme) Name() Mode { return POMTLB }
func (pomScheme) Build(s *System) {
	s.pom = pomtlb.New(s.cfg.POM)
	s.pomCaches = true
}

type pomNoCacheScheme struct{ pomSchemeBase }

func (pomNoCacheScheme) Name() Mode { return POMTLBNoCache }

// sharedScheme is the Shared_L2 comparison point: one SRAM TLB with the
// combined capacity of all cores' private L2 TLBs.
type sharedScheme struct{ baseScheme }

func (sharedScheme) Name() Mode                 { return SharedL2 }
func (sharedScheme) Validate(cfg *Config) error { return tlb.SharedL2(cfg.Cores).Validate() }
func (sharedScheme) Build(s *System)            { s.shared = tlb.MustNew(tlb.SharedL2(s.cfg.Cores)) }
func (sharedScheme) Path(s *System, c *coreState, va addr.VA) tlb.Entry {
	return s.sharedPath(c, va)
}
func (sharedScheme) Shootdown(s *System, vmid addr.VMID, pid addr.PID, va addr.VA, vpn uint64, size addr.PageSize) {
	s.shared.InvalidatePage(vmid, pid, vpn, size)
}
func (sharedScheme) ProcessExit(s *System, vmid addr.VMID, pid addr.PID) int {
	return s.shared.InvalidateProcess(vmid, pid)
}
func (sharedScheme) Holds(s *System, vmid addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize) bool {
	return s.shared.LookupOnly(vmid, pid, va.VPN(size), size)
}
func (sharedScheme) AttachSelfCheck(s *System, sc *SelfCheck) {
	oracle.NewRefTLB(sc.h, s.shared)
}
func (sharedScheme) CheckInvariants(s *System) error { return s.shared.CheckInvariants() }
func (sharedScheme) ResetStats(s *System)            { s.shared.ResetStats() }
func (sharedScheme) Aggregate(s *System, res *Result) {
	res.SharedTLB = s.shared.Stats()
}

// tsbScheme is the SPARC-style software comparison point.
type tsbScheme struct{ baseScheme }

func (tsbScheme) Name() Mode                 { return TSB }
func (tsbScheme) Validate(cfg *Config) error { return cfg.TSBCfg.Validate() }
func (tsbScheme) Build(s *System)            { s.tsbB = tsb.MustNew(s.cfg.TSBCfg) }
func (tsbScheme) Path(s *System, c *coreState, va addr.VA) tlb.Entry {
	return s.tsbPath(c, va)
}
func (tsbScheme) Seeds() bool { return true }
func (tsbScheme) Seed(s *System, c *coreState, va addr.VA, size addr.PageSize, pfn uint64) {
	s.tsbB.Insert(c.vmid, c.pid, va.VPN(size), pfn, size)
}
func (tsbScheme) Shootdown(s *System, vmid addr.VMID, pid addr.PID, va addr.VA, vpn uint64, size addr.PageSize) {
	s.tsbB.InvalidatePage(vmid, pid, vpn, size)
}
func (tsbScheme) ProcessExit(s *System, vmid addr.VMID, pid addr.PID) int {
	return s.tsbB.InvalidateProcess(vmid, pid)
}
func (tsbScheme) Holds(s *System, vmid addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize) bool {
	return s.tsbB.Peek(vmid, pid, va.VPN(size), size)
}
func (tsbScheme) CheckInvariants(*System) error { return nil }
func (tsbScheme) ResetStats(s *System)          { s.tsbB.ResetStats() }
func (tsbScheme) Aggregate(s *System, res *Result) {
	res.TSBLookups = s.tsbB.Stats()
	res.TSBConflicts = s.tsbB.Conflicts
}

// l4Scheme spends the die-stacked capacity as an L4 data cache that
// serves every reference; the translation path is the baseline walk,
// whose PTE reads hit the L4.
type l4Scheme struct{ stackedScheme }

func (l4Scheme) Name() Mode { return L4Cache }

// l4Config is the L4 data cache: the capacity and die-stacked channel of
// the POM-TLB it replaces, 16-way.
func l4Config(cfg *Config) dramcache.Config {
	return dramcache.Config{SizeBytes: cfg.POM.SizeBytes, Ways: 16, DRAM: cfg.POM.DRAM}
}

func (l4Scheme) Validate(cfg *Config) error { return l4Config(cfg).Validate() }
func (l4Scheme) Build(s *System) {
	s.stacked = dramcache.MustNew(l4Config(&s.cfg))
	s.stackedAll = true
}
func (l4Scheme) Aggregate(s *System, res *Result) {
	res.L4Cache = s.stacked.Stats()
	res.L4DRAMStats = s.stacked.DRAMStats()
}
