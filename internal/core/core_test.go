package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/lru"
	"repro/internal/trace"
	"repro/internal/victima"
	"repro/internal/workloads"
)

// smallConfig returns a quick configuration for unit tests. The warmup
// must cover the test footprint (≈ 23k pages for 96 MB) so measured
// references hit a warmed POM-TLB, as in the paper's methodology.
func smallConfig(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.Cores = 2
	cfg.WarmupRefs = 150_000
	cfg.MaxRefs = 50_000
	return cfg
}

// gupsParams is a TLB-hostile reference stream.
func gupsParams(threads int) trace.Params {
	return trace.Params{
		Seed:           3,
		FootprintBytes: 96 << 20,
		LargeFrac:      0.1,
		Threads:        threads,
		MeanGap:        5,
		WriteFrac:      0.3,
	}
}

func runMode(t *testing.T, mode Mode) Result {
	t.Helper()
	cfg := smallConfig(mode)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), trace.NewUniform(gupsParams(cfg.Cores)), "gups-test")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestConfigValidate pins that every configuration NewSystem cannot build
// fails Validate, and that NewSystem returns that error instead of
// panicking in a constructor.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		is   error // when set, the error Validate must wrap
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }, nil},
		{"virtualized with zero VMs", func(c *Config) { c.VMs = 0 }, nil},
		{"zero MaxRefs", func(c *Config) { c.MaxRefs = 0 }, nil},
		{"L1D with zero ways", func(c *Config) { c.L1D.Ways = 0 }, nil},
		{"zero PDE cache entries", func(c *Config) { c.Walker.PDEEntries = 0 }, nil},
		{"zero nested TLB entries", func(c *Config) { c.Walker.NestedTLB = 0 }, nil},
		{"pom-tlb DRAM without banks", func(c *Config) { c.POM.DRAM.Banks = 0 }, nil},
		{"pom-tlb too small for one small set", func(c *Config) { c.POM.SizeBytes = 64 }, nil},
		{"pom-tlb too small for one large set", func(c *Config) {
			c.POM.SizeBytes, c.POM.SmallFraction = 100, 0.99
		}, nil},
		{"l4-cache with 3072 sets", func(c *Config) { c.Mode, c.POM.SizeBytes = L4Cache, 3<<20 }, nil},
		{"l4-cache with 24576 sets", func(c *Config) { c.Mode, c.POM.SizeBytes = L4Cache, 24<<20 }, nil},
		{"l4-cache DRAM without banks", func(c *Config) { c.Mode, c.POM.DRAM.Banks = L4Cache, 0 }, nil},
		{"shared-l2 on 3 cores", func(c *Config) { c.Mode, c.Cores = SharedL2, 3 }, nil},
		// A set's recency word ranks at most 16 ways.
		{"17-way L3", func(c *Config) { c.L3.SizeBytes, c.L3.Ways = 17*64*8192, 17 }, lru.ErrTooManyWays},
		{"17-way L2 TLB", func(c *Config) { c.L2TLB.Entries, c.L2TLB.Ways = 17*128, 17 }, lru.ErrTooManyWays},
		{"17-way dram-cache directory", func(c *Config) {
			c.Mode, c.DCache.SizeBytes, c.DCache.Ways = DRAMCache, 17*64*16384, 17
		}, lru.ErrTooManyWays},
		// Sizes NewSystem allocates up front. Each used to pass Validate,
		// and building it would exhaust host memory, so a row fails on
		// Validate before NewSystem is reached.
		{"victima with 2^40 sets", func(c *Config) { c.Mode, c.VictimaCfg.Sets = Victima, 1<<40 }, victima.ErrTooManyEntries},
		{"victima sets derived from a 1 GiB direct-mapped L2", func(c *Config) {
			c.Mode, c.L2.SizeBytes, c.L2.Ways = Victima, 1<<30, 1
		}, victima.ErrTooManyEntries},
		{"2^30 DDR channels", func(c *Config) { c.DDRChannels = 1 << 30 }, ErrTooManyChannels},
		{"2^40 DDR banks", func(c *Config) { c.DDR.Banks = 1 << 40 }, dram.ErrTooManyBanks},
		{"12 DDR banks", func(c *Config) { c.DDR.Banks = 12 }, dram.ErrBanksNotPowerOfTwo},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.edit(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted the config")
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("Validate = %v, want it to wrap %v", err, tc.is)
			}
			if _, nerr := NewSystem(cfg); nerr == nil || nerr.Error() != err.Error() {
				t.Fatalf("NewSystem error = %v, want %v", nerr, err)
			}
		})
	}
}

func TestNewSystemRejectsInvalid(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		Baseline: "baseline", POMTLB: "pom-tlb", POMTLBNoCache: "pom-tlb-nocache",
		SharedL2: "shared-l2", TSB: "tsb", Victima: "victima", DRAMCache: "dram-cache",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%s.String() = %q", string(m), m.String())
		}
	}
	if Mode("").String() != "baseline" {
		t.Error("zero mode should read as the baseline it resolves to")
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range Modes() {
		got, err := ParseMode(string(m))
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", string(m), got, err)
		}
	}
	for _, bad := range []string{"", "bogus", "POM-TLB"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) accepted", bad)
		}
	}
}

func TestRegistryCoversConstants(t *testing.T) {
	want := []Mode{Baseline, POMTLB, POMTLBNoCache, SharedL2, TSB, L4Cache, Victima, DRAMCache}
	reg := Modes()
	for _, m := range want {
		sch, ok := SchemeFor(m)
		if !ok {
			t.Fatalf("mode %s not registered", m)
		}
		if sch.Name() != m {
			t.Errorf("scheme registered under %s names itself %s", m, sch.Name())
		}
		found := false
		for _, r := range reg {
			if r == m {
				found = true
			}
		}
		if !found {
			t.Errorf("Modes() omits %s", m)
		}
	}
}

func TestResolveLevelString(t *testing.T) {
	for r := ResL1TLB; r < numResolveLevels; r++ {
		if strings.HasPrefix(r.String(), "ResolveLevel(") {
			t.Errorf("level %d has no name", r)
		}
	}
	if !strings.HasPrefix(ResolveLevel(99).String(), "ResolveLevel(") {
		t.Error("unknown level string")
	}
}

func TestBaselineRuns(t *testing.T) {
	res := runMode(t, Baseline)
	if res.Records != 50_000 {
		t.Errorf("records = %d", res.Records)
	}
	if res.L2TLB.Misses == 0 {
		t.Error("gups over 128MB must miss the L2 TLB")
	}
	if res.AvgPenalty() <= 0 {
		t.Error("baseline penalty should be positive")
	}
	if res.Resolved[ResWalk] != res.L2TLB.Misses {
		t.Errorf("baseline resolves every L2 miss by walking: %d vs %d",
			res.Resolved[ResWalk], res.L2TLB.Misses)
	}
	if res.Walk.Walks2D == 0 {
		t.Error("virtualized baseline should do 2D walks")
	}
	if res.Cycles == 0 || res.Insts == 0 || res.IPC() <= 0 {
		t.Error("cycle/instruction accounting broken")
	}
}

func TestPOMTLBBeatsBaseline(t *testing.T) {
	base := runMode(t, Baseline)
	pom := runMode(t, POMTLB)
	if pom.AvgPenalty() >= base.AvgPenalty() {
		t.Errorf("POM-TLB penalty %.1f should beat baseline %.1f",
			pom.AvgPenalty(), base.AvgPenalty())
	}
	if pom.WalkEliminationRate() < 0.90 {
		t.Errorf("POM-TLB should eliminate ~all walks once warm, got %.2f",
			pom.WalkEliminationRate())
	}
	if pom.POMDRAM.Total() == 0 && pom.L2DProbe.Total() == 0 {
		t.Error("POM path never exercised")
	}
}

func TestPOMTLBResolveLevelsAccounted(t *testing.T) {
	res := runMode(t, POMTLB)
	var post uint64
	for _, lvl := range []ResolveLevel{ResL2D, ResL3D, ResPOM, ResWalk} {
		post += res.Resolved[lvl]
	}
	if post != res.L2TLB.Misses {
		t.Errorf("post-L2-miss resolutions %d != L2 misses %d", post, res.L2TLB.Misses)
	}
	if res.Resolved[ResL1TLB]+res.Resolved[ResL2TLB]+post != res.Records {
		t.Error("total resolutions != records")
	}
}

func TestPOMTLBNoCacheSkipsCaches(t *testing.T) {
	res := runMode(t, POMTLBNoCache)
	if res.L2DProbe.Total() != 0 || res.L3DProbe.Total() != 0 {
		t.Error("no-cache mode must not probe data caches for TLB entries")
	}
	if res.POMDRAM.Total() == 0 {
		t.Error("no-cache mode must hit the DRAM TLB")
	}
	if res.BypassPred.Total() != 0 {
		t.Error("bypass predictor is meaningless without caches")
	}
	// Figure 12: caching hides DRAM latency, so no-cache is slower.
	cached := runMode(t, POMTLB)
	if res.AvgPenalty() <= cached.AvgPenalty() {
		t.Errorf("no-cache penalty %.1f should exceed cached %.1f",
			res.AvgPenalty(), cached.AvgPenalty())
	}
}

func TestSharedL2Mode(t *testing.T) {
	res := runMode(t, SharedL2)
	if res.SharedTLB.Total() == 0 {
		t.Error("shared TLB never probed")
	}
	if res.Resolved[ResShared]+res.Resolved[ResWalk] != res.L2TLB.Misses {
		t.Error("shared-mode resolution accounting broken")
	}
}

func TestTSBMode(t *testing.T) {
	res := runMode(t, TSB)
	if res.TSBLookups.Total() == 0 {
		t.Error("TSB never probed")
	}
	if res.Resolved[ResTSB]+res.Resolved[ResWalk] != res.L2TLB.Misses {
		t.Error("TSB resolution accounting broken")
	}
	// Trap cost per miss: TSB penalty must exceed the trap cycles.
	if res.AvgPenalty() < float64(DefaultConfig().TSBCfg.TrapCycles) {
		t.Errorf("TSB penalty %.1f below trap cost", res.AvgPenalty())
	}
}

func TestSchemeOrderingOnTLBStressWorkload(t *testing.T) {
	// The paper's Figure 8 ordering: POM-TLB < Shared_L2 (for reach-bound
	// workloads) and POM-TLB < TSB < Baseline on penalty.
	pom := runMode(t, POMTLB)
	tsbRes := runMode(t, TSB)
	base := runMode(t, Baseline)
	if !(pom.AvgPenalty() < tsbRes.AvgPenalty()) {
		t.Errorf("POM (%.1f) should beat TSB (%.1f)", pom.AvgPenalty(), tsbRes.AvgPenalty())
	}
	// TSB reach covers this footprint, so it should be at worst on par
	// with the baseline (in the paper it helps gups only marginally).
	if tsbRes.AvgPenalty() > base.AvgPenalty()*1.05 {
		t.Errorf("TSB (%.1f) should be ≲ baseline (%.1f) on a 96MB uniform workload",
			tsbRes.AvgPenalty(), base.AvgPenalty())
	}
}

func TestNativeMode(t *testing.T) {
	cfg := smallConfig(Baseline)
	cfg.Virtualized = false
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), trace.NewUniform(gupsParams(cfg.Cores)), "native")
	if err != nil {
		t.Fatal(err)
	}
	if res.Walk.WalksNative == 0 || res.Walk.Walks2D != 0 {
		t.Errorf("native mode walked 2D: %+v", res.Walk)
	}
	// Native walks are ≤ 4 refs; virtualized up to 24.
	virt := runMode(t, Baseline)
	if res.AvgPenalty() >= virt.AvgPenalty() {
		t.Errorf("native penalty %.1f should be below virtualized %.1f",
			res.AvgPenalty(), virt.AvgPenalty())
	}
}

func TestMultiVM(t *testing.T) {
	cfg := smallConfig(POMTLB)
	cfg.Cores = 4
	cfg.VMs = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.vms) != 2 {
		t.Fatalf("VMs = %d", len(sys.vms))
	}
	res, err := sys.Run(context.Background(), trace.NewUniform(gupsParams(cfg.Cores)), "multivm")
	if err != nil {
		t.Fatal(err)
	}
	// Both VMs' translations coexist in the POM-TLB.
	for _, vm := range sys.vms {
		if sys.pom.InvalidateProcess(vm.ID(), 1) == 0 {
			t.Errorf("POM-TLB holds no translations of VM %d after multi-VM run", vm.ID())
		}
	}
	if res.WalkEliminationRate() < 0.5 {
		t.Errorf("multi-VM walk elimination = %.2f", res.WalkEliminationRate())
	}
}

func TestStreamingWorkloadHasFewL2Misses(t *testing.T) {
	cfg := smallConfig(POMTLB)
	sys, _ := NewSystem(cfg)
	p := trace.Params{
		Seed: 1, FootprintBytes: 64 << 20, LargeFrac: 0.9,
		Threads: cfg.Cores, MeanGap: 8, WriteFrac: 0.2,
	}
	res, err := sys.Run(context.Background(), trace.NewStream(p), "stream")
	if err != nil {
		t.Fatal(err)
	}
	// 90% 2 MB pages + sequential: almost every reference hits the L1/L2
	// TLBs (the L2 is only probed at page transitions, which all miss, so
	// the per-reference rate is the meaningful one).
	if mpr := float64(res.L2TLB.Misses) / float64(res.Records); mpr > 0.01 {
		t.Errorf("streaming L2 TLB misses per reference = %.4f, want tiny", mpr)
	}
}

func TestWarmupDiscarded(t *testing.T) {
	cfg := smallConfig(POMTLB)
	cfg.WarmupRefs = 10_000
	sys, _ := NewSystem(cfg)
	res, err := sys.Run(context.Background(), trace.NewUniform(gupsParams(cfg.Cores)), "warm")
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != uint64(cfg.MaxRefs) {
		t.Errorf("records = %d, want %d (warmup excluded)", res.Records, cfg.MaxRefs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		sys, _ := NewSystem(smallConfig(POMTLB))
		res, _ := sys.Run(context.Background(), trace.NewUniform(gupsParams(2)), "det")
		return res
	}
	a, b := run(), run()
	if a.PenaltyCycles != b.PenaltyCycles || a.Cycles != b.Cycles ||
		a.L2TLB != b.L2TLB || a.POMDRAM != b.POMDRAM {
		t.Error("identical configurations must produce identical results")
	}
}

func TestRunWithWorkloadProfile(t *testing.T) {
	p, _ := workloads.ByName("gups")
	cfg := smallConfig(POMTLB)
	sys, _ := NewSystem(cfg)
	res, err := sys.Run(context.Background(), p.Generator(cfg.Cores, cfg.Seed), p.Name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "gups" {
		t.Errorf("workload = %q", res.Workload)
	}
	if res.SizePred.Total() == 0 {
		t.Error("size predictor never consulted")
	}
	if res.String() == "" {
		t.Error("empty summary")
	}
}

func TestResultZeroDivisions(t *testing.T) {
	var r Result
	if r.AvgPenalty() != 0 || r.WalkEliminationRate() != 0 || r.IPC() != 0 {
		t.Error("zero result should report zeros")
	}
}

func TestSystemString(t *testing.T) {
	sys, _ := NewSystem(smallConfig(POMTLB))
	if !strings.Contains(sys.String(), "pom-tlb") {
		t.Errorf("String() = %q", sys.String())
	}
}

func TestThreadsCheckCores(t *testing.T) {
	var s Threads
	for _, th := range []uint8{0, 1, 2, 3} {
		s.Add(th)
	}
	for _, cores := range []int{1, 2, 4} {
		if err := s.CheckCores(cores); err != nil {
			t.Errorf("threads 0-3 on %d cores: %v", cores, err)
		}
	}
	// Cores 4-7 get no thread under t % 8.
	if err := s.CheckCores(8); !errors.Is(err, ErrIdleCore) || !strings.Contains(err.Error(), "core 4 of 8") {
		t.Errorf("threads 0-3 on 8 cores: %v, want core 4 idle", err)
	}
	// Thread 255 maps to core 1 of 2 and core 3 of 4, the last word's top bit.
	var hi Threads
	hi.Add(0)
	hi.Add(255)
	if err := hi.CheckCores(2); err != nil {
		t.Errorf("threads 0 and 255 on 2 cores: %v", err)
	}
	if err := hi.CheckCores(4); !errors.Is(err, ErrIdleCore) || !strings.Contains(err.Error(), "core 1 of 4") {
		t.Errorf("threads 0 and 255 on 4 cores: %v, want core 1 idle", err)
	}
	if err := (Threads{}).CheckCores(1); !errors.Is(err, ErrIdleCore) {
		t.Errorf("no threads: %v, want ErrIdleCore", err)
	}
}
