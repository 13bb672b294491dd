package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/stats"
)

// Report runs the full campaign on r and writes a paper-vs-measured
// markdown report — the contents of EXPERIMENTS.md. Every section renders
// whatever rows its campaign cells produced, a trailing section lists any
// failed cells, and the combined *CampaignError is returned (nil for a
// clean campaign). A cancelled or partially-panicked campaign therefore
// still emits a readable report of everything that completed.
func Report(ctx context.Context, w io.Writer, r *Runner, ablations bool) error {
	opts := r.Options()
	var fs failureSet
	fmt.Fprintf(w, "# EXPERIMENTS — POM-TLB reproduction\n\n")
	fmt.Fprintf(w, "Campaign: %d cores, %d VMs, %d warmup + %d measured references per run, seed %d.\n\n",
		opts.Cores, opts.VMs, opts.WarmupRefs, opts.MaxRefs, opts.Seed)
	fmt.Fprintf(w, "Paper numbers come from the published figures/tables; measured numbers from\n")
	fmt.Fprintf(w, "this repository's simulator. The fidelity target is shape (who wins, by\n")
	fmt.Fprintf(w, "roughly what factor), not absolute cycles — see DESIGN.md §2.\n\n")

	fmt.Fprintf(w, "## Table 1 — system parameters\n\n```\n%s```\n\n", Table1())
	fmt.Fprintf(w, "## Table 2 — workloads\n\n```\n%s```\n\n", Table2())

	for _, n := range Figures {
		fs.absorb(WriteFigure(ctx, w, r, n))
	}

	// Cross-scheme comparison over the full registry.
	xs, err := CrossScheme(ctx, r)
	fs.absorb(err)
	fmt.Fprintf(w, "## Cross-scheme comparison — every registered scheme\n\n")
	fmt.Fprintf(w, "All schemes the registry knows, on one axis. Improvement uses the\n")
	fmt.Fprintf(w, "linear model against the measured baseline and is only defined for\n")
	fmt.Fprintf(w, "calibrated schemes; fully-simulated walkers (l4-cache, dram-cache)\n")
	fmt.Fprintf(w, "show \"—\" because their penalties cannot be mixed with measured ones.\n\n")
	WriteCrossScheme(w, xs)

	// Cloud-consolidation scenario: per-tenant-tier breakdown.
	tiers, err := ConsolidationTiers(ctx, r, DefaultConsolidationPreset, nil)
	fs.absorb(err)
	fmt.Fprintf(w, "## Consolidation — %s per-tier breakdown\n\n", DefaultConsolidationPreset)
	fmt.Fprintf(w, "Hundreds of guests with Zipf tenant popularity (hot/warm/cold tiers).\n")
	fmt.Fprintf(w, "SRAM TLBs thrash across tenants; a tagged in-memory TLB retains every\n")
	fmt.Fprintf(w, "tenant's translations at once, so POM-TLB's walk elimination should\n")
	fmt.Fprintf(w, "hold up on the cold tail where TSB and Shared_L2 fall off. All walks\n")
	fmt.Fprintf(w, "are simulated (no Table 2 calibration exists for a tenant mix).\n\n")
	WriteConsolidationTiers(w, tiers)

	if ablations {
		writeAbl := func(title, paperNote string, pts []AblationPoint) {
			fmt.Fprintf(w, "## %s\n\n%s\n\n", title, paperNote)
			t := stats.NewTable("Point", "Improvement %", "P_avg", "WalkElim")
			for _, p := range pts {
				t.AddRow(p.Label, fmt.Sprintf("%.2f", p.MeanImprovementPct),
					fmt.Sprintf("%.1f", p.MeanPenalty), stats.Pct(p.WalkElimination))
			}
			fmt.Fprintf(w, "```\n%s```\n\n", t.String())
		}

		cap, err := AblationCapacity(ctx, opts)
		fs.absorb(err)
		writeAbl("Ablation §4.6a — POM-TLB capacity", "Paper: 8/16/32 MB changes results < 1%.", cap)

		cores, err := AblationCores(ctx, opts)
		fs.absorb(err)
		writeAbl("Ablation §4.6b — core count", "Paper: 4–32 cores leave the improvement ≈ unchanged.", cores)

		assoc, err := AblationAssociativity(ctx, opts)
		fs.absorb(err)
		writeAbl("Ablation — associativity", "Paper: < 4 ways causes significantly more conflict misses.", assoc)

		byp, err := AblationBypass(ctx, opts)
		fs.absorb(err)
		writeAbl("Ablation — bypass predictor", "Bypass predictor vs always probing the caches.", byp)

		aware, err := AblationTLBAwareCaching(ctx, opts)
		fs.absorb(err)
		writeAbl("§5.1 — TLB-aware caching", "Replacement priority for POM-TLB entries vs data in L2/L3.", aware)

		pref, err := AblationNeighborPrefetch(ctx, opts)
		fs.absorb(err)
		writeAbl("§6 — burst-neighbour prefetch", "Install the fetched set's other translations into the L2 TLB.", pref)

		mvm, err := MultiVMStudy(ctx, opts, []int{1, 2, 4})
		fs.absorb(err)
		writeAbl("§5.2 — multiple VMs sharing the POM-TLB", "The large TLB retains several VMs' translations at once.", mvm)

		trade, err := TradeoffStudy(ctx, opts)
		fs.absorb(err)
		fmt.Fprintf(w, "## §2.2 — same capacity as L4 data cache vs L3 TLB\n\n")
		fmt.Fprintf(w, "Fully-simulated totals (no measured-baseline mixing).\n\n")
		tt := stats.NewTable("Benchmark", "L4-cache speedup %", "POM-TLB speedup %")
		for _, row := range trade {
			tt.AddRow(row.Name, fmt.Sprintf("%.2f", row.L4SpeedupPct), fmt.Sprintf("%.2f", row.POMSpeedupPct))
		}
		fmt.Fprintf(w, "```\n%s```\n\n", tt.String())

		native, err := NativeStudy(ctx, opts)
		fs.absorb(err)
		fmt.Fprintf(w, "## Native execution — POM-TLB without virtualization\n\n")
		fmt.Fprintf(w, "The paper's introduction: up to 14%% of native execution goes to\n")
		fmt.Fprintf(w, "translation, so the scheme helps bare metal too.\n\n")
		nt := stats.NewTable("Benchmark", "Improvement %", "P_pom", "P_base(native)")
		for _, row := range native {
			nt.AddRow(row.Name, fmt.Sprintf("%.2f", row.ImprovementPct),
				fmt.Sprintf("%.0f", row.Penalty), fmt.Sprintf("%.0f", row.BasePen))
		}
		fmt.Fprintf(w, "```\n%s```\n\n", nt.String())

		fmt.Fprint(w, fidelityNotes)
	}

	if err := fs.err(); err != nil {
		fmt.Fprintf(w, "\n## Degraded cells\n\nThis campaign did not complete cleanly; the tables above omit the\nfollowing (workload, scheme) cells:\n\n```\n%v\n```\n", err)
		return err
	}
	return nil
}

// Figures are the paper's figures the report regenerates, in its order.
var Figures = []int{2, 3, 4, 8, 9, 10, 11, 12}

// WriteFigure writes figure n's section of the report: its heading, the
// paper's numbers and the measured table, byte for byte as Report writes
// it. A failed cell drops only its rows, and the figure's *CampaignError
// is returned (nil when every cell completed).
func WriteFigure(ctx context.Context, w io.Writer, r *Runner, n int) error {
	var err error
	var t *stats.Table
	switch n {
	case 2:
		var rows []Fig2Row
		rows, err = Figure2(ctx, r)
		fmt.Fprintf(w, "## Figure 2 — translation cycles per L2 TLB miss (virtualized)\n\n")
		t = stats.NewTable("Benchmark", "Paper (meas.)", "Simulated baseline", "L2TLB missR")
		for _, row := range rows {
			t.AddRow(row.Name, fmt.Sprintf("%.0f", row.PaperCyc),
				fmt.Sprintf("%.1f", row.SimCyc), fmt.Sprintf("%.3f", row.MissRatio))
		}
	case 3:
		var rows []Fig3Row
		rows, err = Figure3(ctx, r)
		fmt.Fprintf(w, "## Figure 3 — virtualized / native translation cost ratio\n\n")
		t = stats.NewTable("Benchmark", "Paper ratio", "Simulated ratio")
		for _, row := range rows {
			t.AddRow(row.Name, fmt.Sprintf("%.2f", row.PaperRatio), fmt.Sprintf("%.2f", row.SimRatio))
		}
	case 4:
		fmt.Fprintf(w, "## Figure 4 — SRAM latency vs capacity (normalized to 16 KB)\n\n")
		t = stats.NewTable("Capacity", "Normalized latency")
		for _, pt := range Figure4() {
			label := fmt.Sprintf("%dKB", pt.CapacityBytes>>10)
			if pt.CapacityBytes >= 1<<20 {
				label = fmt.Sprintf("%dMB", pt.CapacityBytes>>20)
			}
			t.AddRow(label, fmt.Sprintf("%.2f", pt.Normalized))
		}
	case 8:
		var rows []Fig8Row
		var sum Fig8Summary
		rows, sum, err = Figure8(ctx, r)
		fmt.Fprintf(w, "## Figure 8 — performance improvement (%d core)\n\n", r.Options().Cores)
		fmt.Fprintf(w, "Paper averages: POM-TLB 9.57%%, Shared_L2 6.10%%, TSB 4.27%%.\n")
		fmt.Fprintf(w, "Measured averages: POM-TLB %.2f%%, Shared_L2 %.2f%%, TSB %.2f%%.\n\n",
			sum.POMGeomeanPct, sum.SharedGeomeanPct, sum.TSBGeomeanPct)
		t = stats.NewTable("Benchmark", "POM-TLB %", "Shared_L2 %", "TSB %", "P_pom", "P_shared", "P_tsb", "P_base")
		for _, row := range rows {
			t.AddRow(row.Name,
				fmt.Sprintf("%.2f", row.POM), fmt.Sprintf("%.2f", row.Shared), fmt.Sprintf("%.2f", row.TSB),
				fmt.Sprintf("%.0f", row.POMPen), fmt.Sprintf("%.0f", row.ShPen),
				fmt.Sprintf("%.0f", row.TSBPen), fmt.Sprintf("%.0f", row.BasePen))
		}
	case 9:
		var rows []Fig9Row
		rows, err = Figure9(ctx, r)
		fmt.Fprintf(w, "## Figure 9 — POM-TLB entry hit ratios per level\n\n")
		fmt.Fprintf(w, "Paper averages: L2D$ ≈ 89.7%%, POM-TLB ≈ 88%%.\n\n")
		t = stats.NewTable("Benchmark", "L2D$", "L3D$", "POM-TLB", "WalkElim")
		var l2s, poms []float64
		for _, row := range rows {
			l2s = append(l2s, row.L2D)
			poms = append(poms, row.POM)
			t.AddRow(row.Name, stats.Pct(row.L2D), stats.Pct(row.L3D), stats.Pct(row.POM), stats.Pct(row.WalkEl))
		}
		t.AddRow("MEAN", stats.Pct(stats.ArithMean(l2s)), "", stats.Pct(stats.ArithMean(poms)), "")
	case 10:
		var rows []Fig10Row
		rows, err = Figure10(ctx, r)
		fmt.Fprintf(w, "## Figure 10 — predictor accuracy\n\n")
		fmt.Fprintf(w, "Paper averages: size ≈ 95%%, bypass ≈ 45.8%%.\n\n")
		t = stats.NewTable("Benchmark", "Size acc", "Bypass acc")
		var sz, by []float64
		for _, row := range rows {
			sz = append(sz, row.SizeAcc)
			by = append(by, row.BypassAcc)
			t.AddRow(row.Name, stats.Pct(row.SizeAcc), stats.Pct(row.BypassAcc))
		}
		t.AddRow("MEAN", stats.Pct(stats.ArithMean(sz)), stats.Pct(stats.ArithMean(by)))
	case 11:
		var rows []Fig11Row
		rows, err = Figure11(ctx, r)
		fmt.Fprintf(w, "## Figure 11 — POM-TLB row-buffer hit rate\n\n")
		fmt.Fprintf(w, "Paper average: ≈ 71%% (spatially local workloads high, gups low).\n\n")
		t = stats.NewTable("Benchmark", "RBH", "DRAM accesses")
		var rbhs []float64
		for _, row := range rows {
			rbhs = append(rbhs, row.RBH)
			t.AddRow(row.Name, stats.Pct(row.RBH), fmt.Sprintf("%d", row.Accesses))
		}
		t.AddRow("MEAN", stats.Pct(stats.ArithMean(rbhs)), "")
	case 12:
		var rows []Fig12Row
		var withAvg, noAvg float64
		rows, withAvg, noAvg, err = Figure12(ctx, r)
		fmt.Fprintf(w, "## Figure 12 — with vs without data caching of TLB entries\n\n")
		fmt.Fprintf(w, "Paper: caching adds ≈ 5%% on average. Measured: %.2f%% vs %.2f%%.\n\n", withAvg, noAvg)
		t = stats.NewTable("Benchmark", "With caching %", "Without %")
		for _, row := range rows {
			t.AddRow(row.Name, fmt.Sprintf("%.2f", row.WithCache), fmt.Sprintf("%.2f", row.NoCache))
		}
	default:
		return fmt.Errorf("experiments: no figure %d (the report has figures %v)", n, Figures)
	}
	fmt.Fprintf(w, "```\n%s```\n\n", t.String())
	return err
}

// fidelityNotes documents where and why the reproduction deviates from the
// paper's absolute numbers (the shape criteria of DESIGN.md §2 still hold).
const fidelityNotes = `## Fidelity notes — where we deviate and why

* **Figure 8 magnitudes are compressed** (POM geomean ≈ 3–4% vs the
  paper's 9.57%). The paper's per-workload gains require POM-TLB
  penalties of 15–40 cycles, which in turn require ≈90% of POM-set probes
  to hit the 256 KB L2D$. Our synthetic traces are stationary processes;
  without the phase behaviour of real SPEC binaries, the L2D$ share is
  30–80% and the L3D$ (54 cycles) carries the rest. The *ordering* —
  POM-TLB > Shared_L2 > TSB, winners = the high-overhead workloads,
  streamcluster ≈ 1% — reproduces.
* **Figure 2/3 simulated baselines are flatter than measured.** Our 2D
  walker with Table 1 PSCs lands in the 80–240 cycle band; the paper's
  hardware shows 61–1158 because real PTE locality varies far more than a
  synthetic trace's. The virtualized/native ratio ≈ 2–3× reproduces
  except for the paper's ccomponent outlier (26×), which reflects a
  pathology of its real page-table layout that a synthetic trace does not
  recreate.
* **Figure 11's average RBH is lower than 71%**, and the streaming
  workloads read lowest (lbm, libquantum and streamcluster under 2%),
  for two reasons. First, concurrent streams share one bank: a stream's
  thread slices start a multiple of 16 DRAM rows of POM-TLB sets apart
  (lbm's 48 MB slices are 96 rows), and the bank comes from the address
  bits just above the column, unhashed, so all of a workload's threads
  stream through one bank, each on its own row, and close each other's
  rows. Second, all-bank refresh closes every row once per tREFI
  (31,200 cycles), while a stream reaches the stacked DRAM only about
  once per 4 pages, because its set lines sit in the data caches.
  Removing either cause alone leaves the three streams under 45%;
  removing both (a bank hash and no refresh) lifts them to about 96%.
  The other workloads' sets have little row locality to find, so the
  mean would still be about half the paper's.
* **Shared_L2 is modelled additively** (private L2 TLBs retained) and is
  therefore stronger than the paper's replacement design on workloads
  whose hot sets fit its 12 K entries (gcc, canneal). See DESIGN.md §5.6.
* **TSB is hurt by off-chip channel contention**: its probes share the
  DDR channels with all data traffic, while the POM-TLB owns a
  die-stacked channel — which is the paper's own §2.2 argument.
* **§5.1 works.** Giving POM-TLB entries replacement priority in the data
  caches roughly halves the average penalty in our runs — the clearest
  confirmation of the paper's "TLB-aware caching" suggestion.
`
