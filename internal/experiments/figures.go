package experiments

import (
	"context"
	"fmt"

	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/workloads"
)

// Every FigureN degrades gracefully: a failed (workload, scheme) cell
// drops only that figure row, and the call returns the surviving rows
// together with a *CampaignError listing exactly which cells are missing —
// so a cancelled or partially-panicked campaign still yields every
// completed result.

// Fig2Row is one bar of Figure 2: average translation cycles per L2 TLB
// miss on the virtualized platform — the paper's measured value alongside
// our simulated baseline.
type Fig2Row struct {
	Name      string
	PaperCyc  float64 // Table 2 "Average Cycles-per-L2TLB-miss Virtual"
	SimCyc    float64 // simulated baseline P_avg
	MissRatio float64 // simulated L2 TLB miss ratio, for context
}

// Figure2 regenerates Figure 2.
func Figure2(ctx context.Context, r *Runner) ([]Fig2Row, error) {
	// Warm the grid concurrently; per-cell failures resurface from
	// Result below, where they are attributed row by row.
	_ = r.Prefetch(ctx, r.names(), []core.Mode{core.Baseline})
	var fs failureSet
	var rows []Fig2Row
	for _, p := range r.workloads() {
		res, err := r.Result(ctx, p.Name, core.Baseline)
		if err != nil {
			fs.record(err, p.Name, core.Baseline)
			continue
		}
		rows = append(rows, Fig2Row{
			Name:      p.Name,
			PaperCyc:  p.CyclesPerMissVirt,
			SimCyc:    res.AvgPenalty(),
			MissRatio: res.L2TLB.MissRatio(),
		})
	}
	return rows, fs.err()
}

// Fig3Row is one bar of Figure 3: the ratio of virtualized to native
// translation cost.
type Fig3Row struct {
	Name       string
	PaperRatio float64 // Table 2 column ratio
	SimRatio   float64 // simulated baseline virt / native P_avg
}

// Figure3 regenerates Figure 3. It needs a second, native campaign, which
// it derives from the runner's options.
func Figure3(ctx context.Context, r *Runner) ([]Fig3Row, error) {
	nativeOpts := r.Options()
	nativeOpts.Virtualized = false
	nr := variantRunner(nativeOpts, "native")
	_ = r.Prefetch(ctx, r.names(), []core.Mode{core.Baseline})
	_ = nr.Prefetch(ctx, r.names(), []core.Mode{core.Baseline})
	var fs failureSet
	var rows []Fig3Row
	for _, p := range r.workloads() {
		virt, err := r.Result(ctx, p.Name, core.Baseline)
		if err != nil {
			fs.record(err, p.Name, core.Baseline)
			continue
		}
		nat, err := nr.Result(ctx, p.Name, core.Baseline)
		if err != nil {
			fs.record(err, p.Name, core.Baseline)
			continue
		}
		row := Fig3Row{Name: p.Name, PaperRatio: p.VirtOverNativeRatio()}
		if nat.AvgPenalty() > 0 {
			row.SimRatio = virt.AvgPenalty() / nat.AvgPenalty()
		}
		rows = append(rows, row)
	}
	return rows, fs.err()
}

// Figure4 regenerates Figure 4: normalized SRAM access latency vs
// capacity (no simulation needed — the analytic CACTI model).
func Figure4() []cacti.Point {
	return cacti.Default().Sweep()
}

// Fig8Row is one workload of Figure 8: performance improvement (%) of
// each scheme over the measured baseline, via the linear model.
type Fig8Row struct {
	Name    string
	POM     float64
	Shared  float64
	TSB     float64
	POMPen  float64 // simulated penalties, for the report
	ShPen   float64
	TSBPen  float64
	BasePen float64 // Table 2 baseline penalty
}

// Figure8 regenerates Figure 8 (the headline result). A workload whose
// cell fails under any of the three schemes is dropped from both the rows
// and the geomeans, and reported in the error.
func Figure8(ctx context.Context, r *Runner) ([]Fig8Row, Fig8Summary, error) {
	modes := []core.Mode{core.POMTLB, core.SharedL2, core.TSB}
	_ = r.Prefetch(ctx, r.names(), modes)
	var fs failureSet
	var rows []Fig8Row
	var pomS, shS, tsbS []float64
	for _, p := range r.workloads() {
		row := Fig8Row{Name: p.Name, BasePen: p.CyclesPerMissVirt}
		type slot struct {
			mode core.Mode
			imp  *float64
			pen  *float64
			sp   *[]float64
		}
		slots := []slot{
			{core.POMTLB, &row.POM, &row.POMPen, &pomS},
			{core.SharedL2, &row.Shared, &row.ShPen, &shS},
			{core.TSB, &row.TSB, &row.TSBPen, &tsbS},
		}
		speedups := make([]float64, len(slots))
		ok := true
		for i, sl := range slots {
			res, err := r.Result(ctx, p.Name, sl.mode)
			if err != nil {
				fs.record(err, p.Name, sl.mode)
				ok = false
				continue
			}
			*sl.pen = res.AvgPenalty()
			imp, err := perfmodel.ImprovementPct(perfmodel.FromProfile(p, true, *sl.pen))
			if err != nil {
				fs.record(err, p.Name, sl.mode)
				ok = false
				continue
			}
			*sl.imp = imp
			speedups[i] = 1 + imp/100
		}
		if !ok {
			continue // keep the geomeans consistent with the rendered rows
		}
		for i, sl := range slots {
			*sl.sp = append(*sl.sp, speedups[i])
		}
		rows = append(rows, row)
	}
	sum := Fig8Summary{
		POMGeomeanPct:    perfmodel.GeomeanImprovementPct(pomS),
		SharedGeomeanPct: perfmodel.GeomeanImprovementPct(shS),
		TSBGeomeanPct:    perfmodel.GeomeanImprovementPct(tsbS),
	}
	return rows, sum, fs.err()
}

// Fig8Summary carries Figure 8's averages (paper: POM 9.57%, Shared_L2
// 6.10%, TSB 4.27%).
type Fig8Summary struct {
	POMGeomeanPct    float64
	SharedGeomeanPct float64
	TSBGeomeanPct    float64
}

// Fig9Row is one workload of Figure 9: hit ratio at each level where
// POM-TLB entries are found.
type Fig9Row struct {
	Name   string
	L2D    float64 // TLB-entry probes hitting the L2 data cache
	L3D    float64 // ... the shared L3
	POM    float64 // ... the die-stacked DRAM TLB
	WalkEl float64 // fraction of L2 TLB misses resolved without a walk
}

// Figure9 regenerates Figure 9.
func Figure9(ctx context.Context, r *Runner) ([]Fig9Row, error) {
	_ = r.Prefetch(ctx, r.names(), []core.Mode{core.POMTLB})
	var fs failureSet
	var rows []Fig9Row
	for _, p := range r.workloads() {
		res, err := r.Result(ctx, p.Name, core.POMTLB)
		if err != nil {
			fs.record(err, p.Name, core.POMTLB)
			continue
		}
		rows = append(rows, Fig9Row{
			Name:   p.Name,
			L2D:    res.L2DProbe.Ratio(),
			L3D:    res.L3DProbe.Ratio(),
			POM:    res.POMDRAM.Ratio(),
			WalkEl: res.WalkEliminationRate(),
		})
	}
	return rows, fs.err()
}

// Fig10Row is one workload of Figure 10: predictor accuracies.
type Fig10Row struct {
	Name      string
	SizeAcc   float64
	BypassAcc float64
	SizeTotal uint64
	BypassTot uint64
}

// Figure10 regenerates Figure 10.
func Figure10(ctx context.Context, r *Runner) ([]Fig10Row, error) {
	_ = r.Prefetch(ctx, r.names(), []core.Mode{core.POMTLB})
	var fs failureSet
	var rows []Fig10Row
	for _, p := range r.workloads() {
		res, err := r.Result(ctx, p.Name, core.POMTLB)
		if err != nil {
			fs.record(err, p.Name, core.POMTLB)
			continue
		}
		rows = append(rows, Fig10Row{
			Name:      p.Name,
			SizeAcc:   res.SizePred.Ratio(),
			BypassAcc: res.BypassPred.Ratio(),
			SizeTotal: res.SizePred.Total(),
			BypassTot: res.BypassPred.Total(),
		})
	}
	return rows, fs.err()
}

// Fig11Row is one workload of Figure 11: POM-TLB row-buffer hit rate.
type Fig11Row struct {
	Name     string
	RBH      float64
	Accesses uint64
}

// Figure11 regenerates Figure 11.
func Figure11(ctx context.Context, r *Runner) ([]Fig11Row, error) {
	_ = r.Prefetch(ctx, r.names(), []core.Mode{core.POMTLB})
	var fs failureSet
	var rows []Fig11Row
	for _, p := range r.workloads() {
		res, err := r.Result(ctx, p.Name, core.POMTLB)
		if err != nil {
			fs.record(err, p.Name, core.POMTLB)
			continue
		}
		rows = append(rows, Fig11Row{
			Name:     p.Name,
			RBH:      res.POMDRAMStats.RowBufferHitRate(),
			Accesses: res.POMDRAMStats.Accesses,
		})
	}
	return rows, fs.err()
}

// Fig12Row is one workload of Figure 12: improvement with and without
// caching TLB entries in the data caches.
type Fig12Row struct {
	Name      string
	WithCache float64 // improvement %, POM-TLB with data caching
	NoCache   float64 // improvement %, POM-TLB without
}

// Figure12 regenerates Figure 12.
func Figure12(ctx context.Context, r *Runner) ([]Fig12Row, float64, float64, error) {
	modes := []core.Mode{core.POMTLB, core.POMTLBNoCache}
	_ = r.Prefetch(ctx, r.names(), modes)
	var fs failureSet
	var rows []Fig12Row
	var with, without []float64
	for _, p := range r.workloads() {
		row := Fig12Row{Name: p.Name}
		var sp [2]float64
		ok := true
		for i, m := range modes {
			res, err := r.Result(ctx, p.Name, m)
			if err != nil {
				fs.record(err, p.Name, m)
				ok = false
				continue
			}
			imp, err := perfmodel.ImprovementPct(perfmodel.FromProfile(p, true, res.AvgPenalty()))
			if err != nil {
				fs.record(err, p.Name, m)
				ok = false
				continue
			}
			if m == core.POMTLB {
				row.WithCache = imp
			} else {
				row.NoCache = imp
			}
			sp[i] = 1 + imp/100
		}
		if !ok {
			continue
		}
		with = append(with, sp[0])
		without = append(without, sp[1])
		rows = append(rows, row)
	}
	return rows, perfmodel.GeomeanImprovementPct(with), perfmodel.GeomeanImprovementPct(without), fs.err()
}

// Table1 renders the experimental parameters (Table 1) from the live
// default configuration, so the table can never drift from the code.
func Table1() string {
	cfg := core.DefaultConfig()
	t := stats.NewTable("Parameter", "Value")
	add := func(k, v string) { t.AddRow(k, v) }
	add("Frequency", "4 GHz")
	add("L1 D-Cache", fmt.Sprintf("%dKB, %d way, %d cycles", cfg.L1D.SizeBytes>>10, cfg.L1D.Ways, cfg.L1D.Latency))
	add("L2 Unified Cache", fmt.Sprintf("%dKB, %d way, %d cycles", cfg.L2.SizeBytes>>10, cfg.L2.Ways, cfg.L2.Latency))
	add("L3 Unified Cache", fmt.Sprintf("%dMB, %d way, %d cycles", cfg.L3.SizeBytes>>20, cfg.L3.Ways, cfg.L3.Latency))
	l1s, l1l := tlb.L1Small(), tlb.L1Large()
	add("L1 TLB (4KB)", fmt.Sprintf("%d entries, %d way, %d cycle miss penalty", l1s.Entries, l1s.Ways, cfg.L1MissPenalty))
	add("L1 TLB (2MB)", fmt.Sprintf("%d entries, %d way, %d cycle miss penalty", l1l.Entries, l1l.Ways, cfg.L1MissPenalty))
	add("L2 Unified TLB", fmt.Sprintf("%d entries, %d way, %d cycle miss penalty", cfg.L2TLB.Entries, cfg.L2TLB.Ways, cfg.L2MissPenalty))
	add("PSC PML4", fmt.Sprintf("%d entries, %d cycle", cfg.Walker.PML4Entries, cfg.Walker.PSCLatency))
	add("PSC PDP", fmt.Sprintf("%d entries, %d cycle", cfg.Walker.PDPEntries, cfg.Walker.PSCLatency))
	add("PSC PDE", fmt.Sprintf("%d entries, %d cycle", cfg.Walker.PDEEntries, cfg.Walker.PSCLatency))
	add("Die-Stacked DRAM", fmt.Sprintf("%d MHz bus, %d-bit, %dB rows, %d-%d-%d",
		cfg.POM.DRAM.BusMHz, cfg.POM.DRAM.BusBytes*8, cfg.POM.DRAM.RowBytes,
		cfg.POM.DRAM.TCAS, cfg.POM.DRAM.TRCD, cfg.POM.DRAM.TRP))
	add("DDR", fmt.Sprintf("%s, %d MHz bus, %d-bit, %dB rows, %d-%d-%d",
		cfg.DDR.Name, cfg.DDR.BusMHz, cfg.DDR.BusBytes*8, cfg.DDR.RowBytes,
		cfg.DDR.TCAS, cfg.DDR.TRCD, cfg.DDR.TRP))
	add("POM-TLB", fmt.Sprintf("%dMB total, %d-way, split %0.f/%.0f%%",
		cfg.POM.SizeBytes>>20, cfg.POM.Ways, 100*cfg.POM.SmallFraction, 100*(1-cfg.POM.SmallFraction)))
	return t.String()
}

// Table2 renders the workload characteristics table.
func Table2() string {
	t := stats.NewTable("Benchmark", "OvhNat%", "OvhVirt%", "Cyc/missNat", "Cyc/missVirt", "Large%", "Pattern", "Footprint")
	for _, p := range workloads.All() {
		t.AddRow(p.Name,
			fmt.Sprintf("%.2f", p.OverheadNativePct),
			fmt.Sprintf("%.2f", p.OverheadVirtPct),
			fmt.Sprintf("%.0f", p.CyclesPerMissNative),
			fmt.Sprintf("%.0f", p.CyclesPerMissVirt),
			fmt.Sprintf("%.1f", p.LargePagePct),
			p.Pattern.String(),
			fmt.Sprintf("%dMB", p.FootprintBytes>>20))
	}
	return t.String()
}
