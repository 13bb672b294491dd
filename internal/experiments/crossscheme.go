package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// CrossRow is one (workload, scheme) cell of the cross-scheme comparison:
// every scheme in the registry run over the same workload, reported on a
// shared axis. Improvement is only meaningful for calibrated non-baseline
// schemes (HasImprovement); schemes that simulate their own walks
// (l4-cache, dram-cache) report fully-simulated penalties that cannot be
// mixed with the measured baseline, so their improvement renders as "—".
type CrossRow struct {
	Workload string
	Mode     core.Mode
	// Penalty is the simulated average translation penalty per L2 TLB
	// miss (P_avg).
	Penalty float64
	// WalkElim is the fraction of L2 TLB misses resolved without a walk.
	WalkElim float64
	// ImprovementPct is the linear-model improvement over the measured
	// baseline, valid only when HasImprovement.
	ImprovementPct float64
	// HasImprovement is false for the baseline itself and for schemes
	// whose walks are not charged at the calibrated baseline cost.
	HasImprovement bool
}

// CrossScheme regenerates the cross-scheme comparison: it runs every
// workload under every scheme the registry knows — including schemes
// registered after this package was written — and returns one row per
// (workload, scheme) cell in registration order. Failed cells are dropped
// and reported via the returned *CampaignError.
func CrossScheme(ctx context.Context, r *Runner) ([]CrossRow, error) {
	modes := core.Modes()
	_ = r.Prefetch(ctx, r.names(), modes)
	var fs failureSet
	var rows []CrossRow
	for _, p := range r.workloads() {
		for _, mode := range modes {
			res, err := r.Result(ctx, p.Name, mode)
			if err != nil {
				fs.record(err, p.Name, mode)
				continue
			}
			row := CrossRow{
				Workload: p.Name,
				Mode:     mode,
				Penalty:  res.AvgPenalty(),
				WalkElim: res.WalkEliminationRate(),
			}
			if mode != core.Baseline && core.CalibratedWalks(mode) {
				// Same capping as Figure 8: a simulated penalty above the
				// measured baseline reads as "no gain".
				pen := row.Penalty
				base := p.CyclesPerMissVirt
				in := perfmodel.FromProfile(p, min64(pen, base))
				if !r.Options().Virtualized {
					base = p.CyclesPerMissNative
					in = perfmodel.FromProfileNative(p, min64(pen, base))
				}
				if imp, err := perfmodel.ImprovementPct(in); err == nil {
					row.ImprovementPct = imp
					row.HasImprovement = true
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, fs.err()
}

// WriteCrossScheme renders the comparison as the report's markdown table.
func WriteCrossScheme(w io.Writer, rows []CrossRow) {
	t := stats.NewTable("Benchmark", "Scheme", "P_avg", "WalkElim", "Improvement %")
	for _, row := range rows {
		imp := "—"
		if row.HasImprovement {
			imp = fmt.Sprintf("%.2f", row.ImprovementPct)
		}
		t.AddRow(row.Workload, row.Mode.String(),
			fmt.Sprintf("%.1f", row.Penalty), stats.Pct(row.WalkElim), imp)
	}
	fmt.Fprintf(w, "```\n%s```\n\n", t.String())
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
