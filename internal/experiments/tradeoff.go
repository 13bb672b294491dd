package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/workloads"
)

// TradeoffRow is one workload of the Section 2.2 study: the same 16 MB of
// die-stacked DRAM spent as an L4 data cache versus as the POM-TLB,
// compared by fully-simulated total cycles (no measured-baseline mixing,
// so the three machines are directly comparable).
type TradeoffRow struct {
	Name string
	// L4SpeedupPct / POMSpeedupPct are improvements over the baseline in
	// simulated total cycles.
	L4SpeedupPct  float64
	POMSpeedupPct float64
}

// tradeoffWorkloads spans the spectrum: translation-bound (mcf, gups),
// data-bound streaming (lbm), and mixed (soplex).
var tradeoffWorkloads = []string{"mcf", "gups", "lbm", "soplex"}

// TradeoffStudy quantifies §2.2's argument that a translation hit saves
// more than a data hit: an L3 TLB hit removes a blocking multi-reference
// walk, while an L4 data hit removes one overlappable memory access. A
// workload missing any of its three machines is dropped and reported
// through the returned *CampaignError.
func TradeoffStudy(ctx context.Context, base Options) ([]TradeoffRow, error) {
	opts := base
	opts.UncalibratedWalks = true // all three machines fully simulated
	grid, err := variantRunner(opts, "uncalibrated").Grid(ctx, tradeoffWorkloads, core.Baseline, core.L4Cache, core.POMTLB)
	return completeRows(tradeoffWorkloads, grid, func(p workloads.Profile, res []*core.Result) TradeoffRow {
		row := TradeoffRow{Name: p.Name}
		if res[1].Cycles > 0 {
			row.L4SpeedupPct = 100 * (float64(res[0].Cycles)/float64(res[1].Cycles) - 1)
		}
		if res[2].Cycles > 0 {
			row.POMSpeedupPct = 100 * (float64(res[0].Cycles)/float64(res[2].Cycles) - 1)
		}
		return row
	}), err
}

// NativeRow is one workload of the native-execution study: the paper's
// introduction notes that many benchmarks spend up to 14% of execution in
// translation even on bare metal, "and hence will benefit from the
// proposed scheme which improves both native and virtualized cases".
type NativeRow struct {
	Name string
	// ImprovementPct is the modelled native-mode improvement.
	ImprovementPct float64
	// Penalty is the simulated native POM-TLB P_avg; BasePen the measured
	// native baseline (Table 2).
	Penalty, BasePen float64
}

// nativeWorkloads are the benchmarks with meaningful native overhead
// (Table 2's "Overhead Native %" ≥ 4%).
var nativeWorkloads = []string{"astar", "GemsFDTD", "gups", "mcf", "soplex", "pagerank", "canneal"}

// NativeStudy runs the POM-TLB under bare-metal (1D-walk) translation and
// models the improvement against the measured native baselines.
func NativeStudy(ctx context.Context, base Options) ([]NativeRow, error) {
	opts := base
	opts.Virtualized = false
	grid, err := variantRunner(opts, "native").Grid(ctx, nativeWorkloads, core.POMTLB)
	return completeRows(nativeWorkloads, grid, func(p workloads.Profile, res []*core.Result) NativeRow {
		pen := res[0].AvgPenalty()
		return NativeRow{Name: p.Name, Penalty: pen, BasePen: p.CyclesPerMissNative,
			ImprovementPct: perfmodel.ImprovementPct(perfmodel.FromProfile(p, false, pen))}
	}), err
}
