package core

import (
	"context"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
)

// TestResolutionAccountingAllModes: in every mode, each measured reference
// resolves at exactly one level, and the post-L2-miss levels sum to the
// L2 TLB miss count.
func TestResolutionAccountingAllModes(t *testing.T) {
	for _, mode := range []Mode{Baseline, POMTLB, POMTLBNoCache, SharedL2, TSB} {
		cfg := smallConfig(mode)
		cfg.WarmupRefs = 20_000
		cfg.MaxRefs = 20_000
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(context.Background(), trace.NewUniform(gupsParams(cfg.Cores)), "inv")
		if err != nil {
			t.Fatal(err)
		}
		var total, postMiss uint64
		for lvl := ResL1TLB; lvl < numResolveLevels; lvl++ {
			total += res.Resolved[lvl]
			if lvl >= ResL2D {
				postMiss += res.Resolved[lvl]
			}
		}
		if total != res.Records {
			t.Errorf("%s: resolved %d != records %d", mode, total, res.Records)
		}
		if postMiss != res.L2TLB.Misses {
			t.Errorf("%s: post-miss resolutions %d != L2 misses %d", mode, postMiss, res.L2TLB.Misses)
		}
		if res.L2TLB.Total() != res.L1TLB.Misses {
			t.Errorf("%s: L2 TLB probes %d != L1 misses %d", mode, res.L2TLB.Total(), res.L1TLB.Misses)
		}
	}
}

// TestTranslationsMatchLogicalAllModes: the timed translation path must
// agree with the logical page tables in every mode, for a sample of
// addresses after a full run.
func TestTranslationsMatchLogicalAllModes(t *testing.T) {
	for _, mode := range []Mode{Baseline, POMTLB, POMTLBNoCache, SharedL2, TSB} {
		cfg := smallConfig(mode)
		cfg.WarmupRefs = 0
		cfg.MaxRefs = 30_000
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := gupsParams(cfg.Cores)
		p.FootprintBytes = 32 << 20
		if _, err := sys.Run(context.Background(), trace.NewUniform(p), "inv"); err != nil {
			t.Fatal(err)
		}
		c := sys.cores[0]
		sample := trace.NewUniform(p)
		checked := 0
		for i := 0; i < 1000 && checked < 100; i++ {
			va := sample.Next().VA
			want, _, ok := sys.vms[0].Translate(c.pid, va)
			if !ok {
				continue
			}
			c.now = c.clock
			got, _ := sys.translate(c, va)
			if got != want {
				t.Fatalf("%s: translate(%v) = %v, logical %v", mode, va, got, want)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%s: nothing checked", mode)
		}
	}
}

// TestPenaltyBounds: per-miss penalties stay within physically sensible
// bounds in every mode (no runaway waits, no free translations).
func TestPenaltyBounds(t *testing.T) {
	for _, mode := range []Mode{Baseline, POMTLB, POMTLBNoCache, SharedL2, TSB} {
		res := runMode(t, mode)
		p := res.AvgPenalty()
		if res.L2TLB.Misses == 0 {
			continue
		}
		if p < 1 {
			t.Errorf("%s: average penalty %.1f is implausibly low", mode, p)
		}
		if p > 5000 {
			t.Errorf("%s: average penalty %.1f looks like a timing runaway", mode, p)
		}
	}
}

// TestCyclesScaleWithRefs: doubling the measured window roughly doubles
// the cycle count (linear-model sanity, no hidden quadratic behaviour).
func TestCyclesScaleWithRefs(t *testing.T) {
	run := func(refs int) uint64 {
		cfg := smallConfig(POMTLB)
		cfg.WarmupRefs = 50_000
		cfg.MaxRefs = refs
		sys, _ := NewSystem(cfg)
		res, err := sys.Run(context.Background(), trace.NewUniform(gupsParams(cfg.Cores)), "scale")
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c1 := run(20_000)
	c2 := run(40_000)
	ratio := float64(c2) / float64(c1)
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("cycles ratio for 2x refs = %.2f, want ≈ 2", ratio)
	}
}

// TestWarmupOnlyAffectsCounters: results must not depend on whether the
// warmup boundary is crossed mid-set — the stats reset discards counters
// without disturbing architectural state.
func TestWarmupOnlyAffectsCounters(t *testing.T) {
	run := func(warmup int) Result {
		cfg := smallConfig(POMTLB)
		cfg.WarmupRefs = warmup
		cfg.MaxRefs = 30_000
		sys, _ := NewSystem(cfg)
		// Skip warmup manually so both runs measure the same window.
		g := trace.NewUniform(gupsParams(cfg.Cores))
		res, err := sys.Run(context.Background(), g, "warmtest")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(60_000)
	b := run(60_000)
	if a.PenaltyCycles != b.PenaltyCycles || a.Resolved != b.Resolved {
		t.Error("identical runs diverged")
	}
}

// TestShootdownDuringRunKeepsInvariants: shooting pages down mid-run and
// continuing never produces a stale translation.
func TestShootdownDuringRunKeepsInvariants(t *testing.T) {
	cfg := smallConfig(POMTLB)
	cfg.WarmupRefs = 0
	cfg.MaxRefs = 20_000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := gupsParams(cfg.Cores)
	p.FootprintBytes = 16 << 20
	if _, err := sys.Run(context.Background(), trace.NewUniform(p), "pre"); err != nil {
		t.Fatal(err)
	}
	vm := sys.vms[0]
	c := sys.cores[0]
	shot := 0
	for vpn := uint64(0); vpn < 1<<14 && shot < 50; vpn++ {
		va := addr.VA(0x10_0000_0000 + vpn<<addr.Shift4K)
		if _, _, ok := vm.Translate(c.pid, va); !ok {
			continue
		}
		old, _, _ := vm.Translate(c.pid, va)
		sys.Shootdown(vm.ID(), c.pid, va, addr.Page4K)
		if _, err := vm.Touch(c.pid, va, addr.Page4K); err != nil {
			t.Fatal(err)
		}
		want, _, _ := vm.Translate(c.pid, va)
		c.now = c.clock
		got, _ := sys.translate(c, va)
		if got != want {
			t.Fatalf("stale translation after shootdown: got %v want %v (old %v)", got, want, old)
		}
		shot++
	}
	if shot == 0 {
		t.Fatal("no pages shot down")
	}
}

// TestProcessExitRecyclesPID: after ProcessExit, a recycled PID must never
// observe the dead process's translations.
func TestProcessExitRecyclesPID(t *testing.T) {
	for _, mode := range []Mode{POMTLB, TSB, SharedL2} {
		cfg := smallConfig(mode)
		cfg.WarmupRefs = 0
		cfg.MaxRefs = 20_000
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := gupsParams(cfg.Cores)
		p.FootprintBytes = 16 << 20
		if _, err := sys.Run(context.Background(), trace.NewUniform(p), "exit"); err != nil {
			t.Fatal(err)
		}
		vm := sys.vms[0]
		removed := sys.ProcessExit(vm.ID(), 1)
		if removed == 0 {
			t.Errorf("%s: ProcessExit removed nothing", mode)
		}
		// All SRAM TLBs empty for the PID.
		for _, c := range sys.cores {
			if n := c.l2tlb.InvalidateProcess(vm.ID(), 1); n != 0 {
				t.Errorf("%s: L2 TLB still holds %d entries", mode, n)
			}
		}
		switch mode {
		case POMTLB:
			if sys.pom.InvalidateProcess(vm.ID(), 1) != 0 {
				t.Errorf("POM-TLB still holds entries after process exit")
			}
		case TSB:
			if sys.tsbB.InvalidateProcess(vm.ID(), 1) != 0 {
				t.Errorf("TSB still holds entries after process exit")
			}
		case SharedL2:
			if sys.shared.InvalidateProcess(vm.ID(), 1) != 0 {
				t.Errorf("shared TLB still holds entries after process exit")
			}
		}
	}
}
