package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Metamorphic relations across schemes: growing a structure can only
// help, and a competitor scheme configured down to nothing is exactly
// the baseline. These pin the monotonicity every capacity sweep (and the
// paper's own ablations) silently assumes.

// metamorphicRun executes one fixed workload under cfg and returns the
// Result. The stream is deterministic, so the only difference between two
// calls is the configuration under test.
func metamorphicRun(t *testing.T, cfg Config) Result {
	t.Helper()
	cfg.WarmupRefs = 100_000
	cfg.MaxRefs = 50_000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := gupsParams(cfg.Cores)
	p.FootprintBytes = 48 << 20
	res, err := sys.Run(context.Background(), trace.NewUniform(p), "metamorphic")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMetamorphicL2TLBGrowth: doubling the L2 TLB's ways (sets held
// constant, so per-set LRU is a stack algorithm) must not increase the
// L2 TLB miss ratio, under any scheme. The doubling goes from 6 ways to
// Table 1's 12, inside the 16-way limit of a set's recency word.
func TestMetamorphicL2TLBGrowth(t *testing.T) {
	for _, mode := range []Mode{Baseline, POMTLB, Victima} {
		t.Run(mode.String(), func(t *testing.T) {
			small := smallConfig(mode)
			big := smallConfig(mode)
			small.L2TLB.Entries /= 2
			small.L2TLB.Ways /= 2
			a, b := metamorphicRun(t, small), metamorphicRun(t, big)
			if b.L2TLB.MissRatio() > a.L2TLB.MissRatio() {
				t.Errorf("L2 TLB miss ratio grew with capacity: %d entries/%d ways %.4f -> %d/%d %.4f",
					small.L2TLB.Entries, small.L2TLB.Ways, a.L2TLB.MissRatio(),
					big.L2TLB.Entries, big.L2TLB.Ways, b.L2TLB.MissRatio())
			}
		})
	}
}

// TestMetamorphicDCacheGrowth: doubling the DRAM page-walk cache (size
// and ways together, sets constant) must not increase its miss ratio.
func TestMetamorphicDCacheGrowth(t *testing.T) {
	small := smallConfig(DRAMCache)
	small.DCache.SizeBytes = 8 << 20
	small.DCache.Ways = 8
	big := smallConfig(DRAMCache)
	big.DCache.SizeBytes = 16 << 20
	big.DCache.Ways = 16
	a, b := metamorphicRun(t, small), metamorphicRun(t, big)
	am := a.DCache.Access[cache.Data].MissRatio()
	bm := b.DCache.Access[cache.Data].MissRatio()
	if a.DCache.Access[cache.Data].Total() == 0 {
		t.Fatal("DRAM cache saw no walk references")
	}
	if bm > am {
		t.Errorf("DRAM-cache miss ratio grew with capacity: 8MB %.4f -> 16MB %.4f", am, bm)
	}
}

// TestMetamorphicPOMGrowth: growing the POM-TLB from 2 MB to 16 MB must
// not reduce the fraction of L2 TLB misses resolved without a walk.
func TestMetamorphicPOMGrowth(t *testing.T) {
	small := smallConfig(POMTLB)
	small.POM.SizeBytes = 2 << 20
	big := smallConfig(POMTLB)
	big.POM.SizeBytes = 16 << 20
	a, b := metamorphicRun(t, small), metamorphicRun(t, big)
	if b.WalkEliminationRate() < a.WalkEliminationRate() {
		t.Errorf("walk elimination fell with POM capacity: 2MB %.4f -> 16MB %.4f",
			a.WalkEliminationRate(), b.WalkEliminationRate())
	}
}

// TestMetamorphicVictimaZeroWaysIsBaseline: Victima with zero donated L2
// ways has no store at all and must reproduce the baseline result
// exactly — same cycles, same penalties, same cache statistics —
// differing only in the Mode label.
func TestMetamorphicVictimaZeroWaysIsBaseline(t *testing.T) {
	vcfg := smallConfig(Victima)
	vcfg.VictimaCfg.DonatedWays = 0
	bcfg := smallConfig(Baseline)
	a, b := metamorphicRun(t, vcfg), metamorphicRun(t, bcfg)
	a.Mode = b.Mode
	if !reflect.DeepEqual(a, b) {
		t.Errorf("victima with 0 donated ways != baseline:\n victima=%+v\n baseline=%+v", a, b)
	}
}
