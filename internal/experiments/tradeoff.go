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
	// CyclesBase/CyclesL4/CyclesPOM are the simulated totals.
	CyclesBase, CyclesL4, CyclesPOM uint64
	// L4SpeedupPct / POMSpeedupPct are improvements over the baseline.
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
	r := variantRunner(opts, "uncalibrated")
	modes := []core.Mode{core.Baseline, core.L4Cache, core.POMTLB}
	_ = r.Prefetch(ctx, tradeoffWorkloads, modes)
	var fs failureSet
	var rows []TradeoffRow
	for _, name := range tradeoffWorkloads {
		var cyc [3]uint64
		ok := true
		for i, m := range modes {
			res, err := r.Result(ctx, name, m)
			if err != nil {
				fs.record(err, name, m)
				ok = false
				continue
			}
			cyc[i] = res.Cycles
		}
		if !ok {
			continue
		}
		row := TradeoffRow{Name: name, CyclesBase: cyc[0], CyclesL4: cyc[1], CyclesPOM: cyc[2]}
		if cyc[1] > 0 {
			row.L4SpeedupPct = 100 * (float64(cyc[0])/float64(cyc[1]) - 1)
		}
		if cyc[2] > 0 {
			row.POMSpeedupPct = 100 * (float64(cyc[0])/float64(cyc[2]) - 1)
		}
		rows = append(rows, row)
	}
	return rows, fs.err()
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
	r := variantRunner(opts, "native")
	_ = r.Prefetch(ctx, nativeWorkloads, []core.Mode{core.POMTLB})
	var fs failureSet
	var rows []NativeRow
	for _, name := range nativeWorkloads {
		res, err := r.Result(ctx, name, core.POMTLB)
		if err != nil {
			fs.record(err, name, core.POMTLB)
			continue
		}
		p, _ := workloads.ByName(name)
		pen := res.AvgPenalty()
		row := NativeRow{Name: name, Penalty: pen, BasePen: p.CyclesPerMissNative}
		if pen > p.CyclesPerMissNative {
			pen = p.CyclesPerMissNative
		}
		imp, err := perfmodel.ImprovementPct(perfmodel.FromProfileNative(p, pen))
		if err != nil {
			fs.record(r.fail(err, name, core.POMTLB), name, core.POMTLB)
			continue
		}
		row.ImprovementPct = imp
		rows = append(rows, row)
	}
	return rows, fs.err()
}
