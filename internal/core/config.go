// Package core wires every substrate into the full memory-hierarchy
// simulator of Section 3.2: per-core two-level TLBs, two levels of private
// data caches, a shared L3, the off-chip DRAM, and — depending on the
// simulated scheme — the DRAM-based POM-TLB with its predictors, a shared
// SRAM L2 TLB, a SPARC-style TSB, or one of the registered competitor
// schemes. It consumes trace records (scheduled by instruction cadence)
// and reports the per-scheme translation penalty and all the
// hit-ratio/predictor/row-buffer statistics behind Figures 8–12.
package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/dramcache"
	"repro/internal/pagetable"
	"repro/internal/pomtlb"
	"repro/internal/tlb"
	"repro/internal/tsb"
	"repro/internal/victima"
)

// Mode names the translation scheme simulated after an L2 TLB miss. It
// is an open string type resolved through the scheme registry
// (RegisterScheme / SchemeFor), so new schemes plug in without touching
// an enum. All modes share identical L1/L2 TLBs and data caches so their
// per-miss penalties are directly comparable (the paper's Figure 8
// framing). The empty string normalizes to Baseline, keeping zero-value
// Configs safe.
type Mode string

const (
	// Baseline resolves L2 TLB misses with the 2D nested page walk,
	// accelerated by page-structure caches and a nested TLB — the
	// Skylake-like baseline.
	Baseline Mode = "baseline"
	// POMTLB adds the paper's DRAM L3 TLB: predictors, data-cache probes
	// of the addressable TLB sets, then the die-stacked DRAM, and only
	// then a page walk.
	POMTLB Mode = "pom-tlb"
	// POMTLBNoCache is POMTLB with data-cache probing disabled — every
	// POM-TLB access goes to the die-stacked DRAM (Figure 12's ablation).
	POMTLBNoCache Mode = "pom-tlb-nocache"
	// SharedL2 probes a shared SRAM TLB with the combined capacity of all
	// cores' L2 TLBs before walking (the Shared_L2 comparison scheme).
	SharedL2 Mode = "shared-l2"
	// TSB traps to software and probes a 16 MB direct-mapped translation
	// storage buffer before a software page walk (the SPARC comparison).
	TSB Mode = "tsb"
	// L4Cache spends the same die-stacked capacity as an L4 *data* cache
	// instead of a TLB — the Section 2.2 trade-off. Translations use the
	// baseline walk (whose PTE reads also benefit from the L4).
	L4Cache Mode = "l4-cache"
	// Victima stores TLB entries in the L2 data cache's ways with a
	// PTE-aware replacement policy and a dual-lookup cost model (after
	// Kanellopoulos et al., arXiv 2310.04158).
	Victima Mode = "victima"
	// DRAMCache services page-walk memory references from a die-stacked
	// DRAM cache ahead of off-chip memory (after Patil et al., arXiv
	// 2002.01073) — walks get shorter instead of being eliminated.
	DRAMCache Mode = "dram-cache"
)

// String implements fmt.Stringer; the zero Mode reads as the baseline it
// resolves to.
func (m Mode) String() string {
	if m == "" {
		return string(Baseline)
	}
	return string(m)
}

// normalize maps the zero value to Baseline.
func (m Mode) normalize() Mode {
	if m == "" {
		return Baseline
	}
	return m
}

// ParseMode resolves a scheme name from a CLI flag or an API request
// against the registry.
func ParseMode(s string) (Mode, error) {
	m := Mode(s)
	if s == "" {
		return "", fmt.Errorf("core: empty mode (%s)", strings.Join(ModeNames(), ", "))
	}
	if _, ok := SchemeFor(m); !ok {
		return "", fmt.Errorf("core: unknown mode %q (%s)", s, strings.Join(ModeNames(), ", "))
	}
	return m, nil
}

// Config describes one simulation.
type Config struct {
	// Mode is the translation scheme.
	Mode Mode
	// Cores is the number of simulated cores (trace threads map onto
	// cores round-robin).
	Cores int
	// VMs is the number of virtual machines; cores are assigned to VMs
	// round-robin. Ignored when Virtualized is false.
	VMs int
	// Virtualized selects 2D nested translation (true) or native 1D
	// walks (false).
	Virtualized bool

	// L1D, L2, L3 are the data-cache levels (Table 1 defaults).
	L1D, L2, L3 cache.Config
	// CachePriority enables the Section 5.1 TLB-aware replacement policy
	// in the L2 and L3 data caches.
	CachePriority cache.Priority
	// L2TLB is the per-core unified TLB; L1 TLBs are the fixed Table 1
	// split pair.
	L2TLB tlb.Config
	// L1MissPenalty and L2MissPenalty are the Table 1 TLB miss penalties
	// in cycles.
	L1MissPenalty uint64
	L2MissPenalty uint64

	// POM configures the DRAM L3 TLB (POMTLB modes).
	POM pomtlb.Config
	// TSBCfg configures the translation storage buffer (TSB mode).
	TSBCfg tsb.Config
	// VictimaCfg configures the cache-resident TLB store (Victima mode).
	VictimaCfg victima.Config
	// DCache configures the die-stacked page-walk cache (DRAMCache mode).
	DCache dramcache.Config
	// Walker configures the page-structure caches and nested TLB.
	Walker pagetable.WalkerConfig
	// DDR is the off-chip channel backing ordinary data.
	DDR dram.Config
	// DDRChannels is the number of interleaved off-chip channels
	// (dual-channel DDR4 on desktop Skylake).
	DDRChannels int

	// DisableBypassPredictor forces every POM-TLB access through the
	// data-cache probes (the bypass-off ablation).
	DisableBypassPredictor bool

	// Coherence enables a write-invalidate protocol over the private
	// L1D/L2 caches: a store invalidates other cores' copies of the line,
	// and a load that misses the shared L3 is served by a cache-to-cache
	// transfer when another core holds the line. Off by default — the
	// paper's trace-driven methodology (like most) treats private caches
	// as incoherent timing filters; enable it to study multithreaded
	// sharing effects.
	Coherence bool

	// NeighborPrefetch enables the Section 6 prefetching extension: a
	// fetched POM-TLB set carries the translations of four consecutive
	// virtual pages, so on a hit the other valid entries of the burst are
	// installed into the L2 TLB at no extra memory cost.
	NeighborPrefetch bool

	// WalkPenaltyOverride, when nonzero, charges this many cycles for
	// each page walk instead of simulating it reference by reference.
	// The experiments harness sets it to the workload's *measured*
	// baseline penalty (Table 2) for the scheme runs: the walk path of
	// every scheme is the baseline path, whose cost the paper takes from
	// hardware measurement rather than simulation (Section 3.3). Leave 0
	// to simulate walks (the Baseline mode always should, as must any
	// scheme whose benefit lives inside the walk — see
	// Scheme.CalibratedWalks).
	WalkPenaltyOverride uint64

	// SteadyState seeds the scheme's large translation structure
	// (POM-TLB, TSB or shared TLB) with each page's translation when the
	// OS first maps it. The paper evaluates 20-billion-instruction traces
	// whose compulsory misses are fully amortized; with the short traces
	// this simulator runs, first-touch walks would otherwise dominate
	// every statistic. L1/L2 TLBs and data caches are NOT seeded — only
	// the structure whose steady-state contents the scheme depends on.
	SteadyState bool

	// WarmupRefs references run before statistics are reset.
	WarmupRefs int
	// MaxRefs is the number of measured references.
	MaxRefs int
	// Seed feeds the workload generator.
	Seed uint64
}

// DefaultConfig returns the Table 1 8-core virtualized system running the
// POM-TLB scheme.
func DefaultConfig() Config {
	return Config{
		Mode:          POMTLB,
		Cores:         8,
		VMs:           1,
		Virtualized:   true,
		L1D:           cache.L1D(),
		L2:            cache.L2(),
		L3:            cache.L3(),
		L2TLB:         tlb.L2Unified(),
		L1MissPenalty: 9,
		L2MissPenalty: 17,
		POM:           pomtlb.DefaultConfig(),
		TSBCfg:        tsb.DefaultConfig(),
		VictimaCfg:    victima.DefaultConfig(),
		DCache:        dramcache.DefaultConfig(),
		Walker:        pagetable.DefaultWalkerConfig(),
		DDR:           dram.DDR4_2133(),
		DDRChannels:   2,
		SteadyState:   true,
		WarmupRefs:    200_000,
		MaxRefs:       1_000_000,
		Seed:          1,
	}
}

// Validate reports configuration errors: the scheme-independent limits
// here, then the registered scheme's own Validate hook.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0 || c.Cores > 256:
		return fmt.Errorf("core: cores %d out of range", c.Cores)
	case c.Virtualized && c.VMs <= 0:
		return fmt.Errorf("core: virtualized run needs at least one VM")
	case c.Virtualized && c.VMs > math.MaxUint16:
		return fmt.Errorf("core: %d VMs exceed the 16-bit VMID limit of %d (VMID 0 is the host's)", c.VMs, math.MaxUint16)
	case c.MaxRefs <= 0:
		return fmt.Errorf("core: MaxRefs must be positive")
	case c.WarmupRefs < 0:
		return fmt.Errorf("core: negative warmup")
	}
	if err := c.L1D.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.L3.Validate(); err != nil {
		return err
	}
	if err := c.L2TLB.Validate(); err != nil {
		return err
	}
	if err := c.DDR.Validate(); err != nil {
		return err
	}
	if err := c.Walker.Validate(); err != nil {
		return err
	}
	sch, ok := SchemeFor(c.Mode)
	if !ok {
		return fmt.Errorf("core: unknown mode %q (%s)", string(c.Mode), strings.Join(ModeNames(), ", "))
	}
	return sch.Validate(&c)
}
