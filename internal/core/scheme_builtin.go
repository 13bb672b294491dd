package core

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dram"
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
func (baselineScheme) Describe() string {
	return "2D nested page walk with page-structure caches and a nested TLB (Skylake-like)"
}
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
	for _, e := range s.pom.Partition(size).SetView(va, vmid) {
		if e.Valid && e.VM == vmid && e.PID == pid && e.VPN == vpn {
			return true
		}
	}
	return false
}
func (pomSchemeBase) AttachSelfCheck(s *System, sc *SelfCheck) {
	sc.pomSmall = oracle.NewRefPOM(sc.h, s.pom.Small)
	sc.pomLarge = oracle.NewRefPOM(sc.h, s.pom.Large)
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
func (pomScheme) Describe() string {
	return "die-stacked DRAM L3 TLB with predictors and data-cache probes of the addressable sets"
}

type pomNoCacheScheme struct{ pomSchemeBase }

func (pomNoCacheScheme) Name() Mode { return POMTLBNoCache }
func (pomNoCacheScheme) Describe() string {
	return "POM-TLB with data-cache probing disabled (every access goes to the die-stacked DRAM)"
}

// sharedScheme is the Shared_L2 comparison point: one SRAM TLB with the
// combined capacity of all cores' private L2 TLBs.
type sharedScheme struct{ baseScheme }

func (sharedScheme) Name() Mode { return SharedL2 }
func (sharedScheme) Describe() string {
	return "shared SRAM TLB with the combined capacity of all cores' L2 TLBs"
}
func (sharedScheme) Build(s *System) { s.shared = tlb.MustNew(tlb.SharedL2(s.cfg.Cores)) }
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

func (tsbScheme) Name() Mode { return TSB }
func (tsbScheme) Describe() string {
	return "software trap probing a 16 MB direct-mapped translation storage buffer (SPARC-style)"
}
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

// l4Scheme spends the die-stacked capacity as an L4 data cache; the
// translation path is the baseline walk, whose PTE reads hit the L4.
type l4Scheme struct{ baseScheme }

func (l4Scheme) Name() Mode { return L4Cache }
func (l4Scheme) Describe() string {
	return "die-stacked capacity spent as an L4 data cache; translations use the baseline walk"
}

// CalibratedWalks is false: the L4's translation benefit is shorter PTE
// reads inside the walk, which a measured-baseline walk charge would
// erase.
func (l4Scheme) CalibratedWalks() bool { return false }
func (l4Scheme) Build(s *System) {
	s.l4 = cache.MustNew(cache.Config{
		Name:      "L4",
		SizeBytes: s.cfg.POM.SizeBytes, // same capacity as the TLB it replaces
		Ways:      16,
		Latency:   0, // the DRAM access itself is charged per hit
	})
	s.l4chan = dram.MustNew(s.cfg.POM.DRAM)
}
func (l4Scheme) Path(s *System, c *coreState, va addr.VA) tlb.Entry {
	return s.baselinePath(c, va)
}
func (l4Scheme) AttachSelfCheck(s *System, sc *SelfCheck) {
	oracle.NewRefCache(sc.h, s.l4)
	oracle.NewRefDRAM(sc.h, s.l4chan)
}
func (l4Scheme) CheckInvariants(s *System) error {
	if err := s.l4.CheckInvariants(); err != nil {
		return err
	}
	return s.l4chan.CheckInvariants()
}
func (l4Scheme) ResetStats(s *System) {
	s.l4.ResetStats()
	s.l4chan.ResetStats()
}
func (l4Scheme) Aggregate(s *System, res *Result) {
	res.L4Cache = s.l4.Stats()
	res.L4DRAMStats = s.l4chan.Stats()
}
