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
	names := r.names()
	grid, err := r.Grid(ctx, names, core.Baseline)
	return completeRows(names, grid, func(p workloads.Profile, res []*core.Result) Fig2Row {
		return Fig2Row{
			Name:      p.Name,
			PaperCyc:  p.CyclesPerMissVirt,
			SimCyc:    res[0].AvgPenalty(),
			MissRatio: res[0].L2TLB.MissRatio(),
		}
	}), err
}

// Fig3Row is one bar of Figure 3: the ratio of virtualized to native
// translation cost.
type Fig3Row struct {
	Name       string
	PaperRatio float64 // Table 2 column ratio
	SimRatio   float64 // simulated baseline virt / native P_avg
}

// Figure3 regenerates Figure 3. It needs a second, native campaign, which
// it derives from the runner's options; a workload needs both cells for
// its row, and every failed cell of either campaign is reported.
func Figure3(ctx context.Context, r *Runner) ([]Fig3Row, error) {
	nativeOpts := r.Options()
	nativeOpts.Virtualized = false
	names := r.names()
	var fs failureSet
	grid, err := r.Grid(ctx, names, core.Baseline)
	fs.absorb(err)
	native, err := variantRunner(nativeOpts, "native").Grid(ctx, names, core.Baseline)
	fs.absorb(err)
	for i := range grid {
		grid[i] = append(grid[i], native[i]...)
	}
	return completeRows(names, grid, func(p workloads.Profile, res []*core.Result) Fig3Row {
		row := Fig3Row{Name: p.Name, PaperRatio: p.VirtOverNativeRatio()}
		if nat := res[1].AvgPenalty(); nat > 0 {
			row.SimRatio = res[0].AvgPenalty() / nat
		}
		return row
	}), fs.err()
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
	names := r.names()
	grid, err := r.Grid(ctx, names, core.POMTLB, core.SharedL2, core.TSB)
	rows := completeRows(names, grid, func(p workloads.Profile, res []*core.Result) Fig8Row {
		row := Fig8Row{Name: p.Name, BasePen: p.CyclesPerMissVirt,
			POMPen: res[0].AvgPenalty(), ShPen: res[1].AvgPenalty(), TSBPen: res[2].AvgPenalty()}
		row.POM = virtImprovement(p, row.POMPen)
		row.Shared = virtImprovement(p, row.ShPen)
		row.TSB = virtImprovement(p, row.TSBPen)
		return row
	})
	var pomS, shS, tsbS []float64
	for _, row := range rows {
		pomS = append(pomS, 1+row.POM/100)
		shS = append(shS, 1+row.Shared/100)
		tsbS = append(tsbS, 1+row.TSB/100)
	}
	sum := Fig8Summary{
		POMGeomeanPct:    perfmodel.GeomeanImprovementPct(pomS),
		SharedGeomeanPct: perfmodel.GeomeanImprovementPct(shS),
		TSBGeomeanPct:    perfmodel.GeomeanImprovementPct(tsbS),
	}
	return rows, sum, err
}

// virtImprovement is the linear model's improvement (%) for workload p on
// the virtualized platform at simulated penalty pen.
func virtImprovement(p workloads.Profile, pen float64) float64 {
	return perfmodel.ImprovementPct(perfmodel.FromProfile(p, true, pen))
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
	names := r.names()
	grid, err := r.Grid(ctx, names, core.POMTLB)
	return completeRows(names, grid, func(p workloads.Profile, res []*core.Result) Fig9Row {
		return Fig9Row{
			Name:   p.Name,
			L2D:    res[0].L2DProbe.Ratio(),
			L3D:    res[0].L3DProbe.Ratio(),
			POM:    res[0].POMDRAM.Ratio(),
			WalkEl: res[0].WalkEliminationRate(),
		}
	}), err
}

// Fig10Row is one workload of Figure 10: predictor accuracies.
type Fig10Row struct {
	Name      string
	SizeAcc   float64
	BypassAcc float64
}

// Figure10 regenerates Figure 10.
func Figure10(ctx context.Context, r *Runner) ([]Fig10Row, error) {
	names := r.names()
	grid, err := r.Grid(ctx, names, core.POMTLB)
	return completeRows(names, grid, func(p workloads.Profile, res []*core.Result) Fig10Row {
		return Fig10Row{
			Name:      p.Name,
			SizeAcc:   res[0].SizePred.Ratio(),
			BypassAcc: res[0].BypassPred.Ratio(),
		}
	}), err
}

// Fig11Row is one workload of Figure 11: POM-TLB row-buffer hit rate.
type Fig11Row struct {
	Name     string
	RBH      float64
	Accesses uint64
}

// Figure11 regenerates Figure 11.
func Figure11(ctx context.Context, r *Runner) ([]Fig11Row, error) {
	names := r.names()
	grid, err := r.Grid(ctx, names, core.POMTLB)
	return completeRows(names, grid, func(p workloads.Profile, res []*core.Result) Fig11Row {
		return Fig11Row{
			Name:     p.Name,
			RBH:      res[0].POMDRAMStats.RowBufferHitRate(),
			Accesses: res[0].POMDRAMStats.Accesses,
		}
	}), err
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
	names := r.names()
	grid, err := r.Grid(ctx, names, core.POMTLB, core.POMTLBNoCache)
	rows := completeRows(names, grid, func(p workloads.Profile, res []*core.Result) Fig12Row {
		return Fig12Row{
			Name:      p.Name,
			WithCache: virtImprovement(p, res[0].AvgPenalty()),
			NoCache:   virtImprovement(p, res[1].AvgPenalty()),
		}
	})
	var with, without []float64
	for _, row := range rows {
		with = append(with, 1+row.WithCache/100)
		without = append(without, 1+row.NoCache/100)
	}
	return rows, perfmodel.GeomeanImprovementPct(with), perfmodel.GeomeanImprovementPct(without), err
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
