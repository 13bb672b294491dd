// Command experiments regenerates the paper's tables and figures, and
// runs design-space sweeps over the workload × scheme × geometry grid.
//
// Usage:
//
//	experiments -all                      # every figure and table
//	experiments -all -ablations           # ... plus the §4.6 ablations
//	experiments -fig 8                    # one figure
//	experiments -table 2                  # one table
//	experiments -report EXPERIMENTS.md    # write the full markdown report
//	experiments -quick -fig 8             # short traces, 2 cores
//	experiments -consolidation consol-zipf        # per-tenant-tier table
//	experiments -workloads consol-churn -tenants 200 -churn 5000 -fig 8
//	experiments -all -checkpoint c.journal          # journal completed cells
//	experiments -all -checkpoint c.journal -resume  # skip journaled cells
//
//	experiments -sweep 'schemes=pom-tlb,tsb:pom-mb=4,8,16:pom-ways=2,4' \
//	    -shards 8 -retry-budget 64 -quarantine-after 3 \
//	    -sweep-csv sweep.csv -manifest quarantine.json \
//	    -checkpoint sweep.journal [-resume]
//
// Sweeps shard the grid over a work-stealing worker pool; every cell runs
// inside the resilience envelope, and failed cells are quarantined into
// the -manifest instead of aborting the sweep. In every mode the
// -checkpoint journal is append-only and fsynced per cell, so even a
// SIGKILL mid-run resumes with exactly the missing cells.
//
// SIGINT/SIGTERM cancel the in-flight simulations; the command still
// emits every completed row (and the checkpoint keeps every completed
// cell) before exiting non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/resilience/faultinject"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// validFigs are the figure numbers this command can regenerate.
var validFigs = map[int]bool{2: true, 3: true, 4: true, 8: true, 9: true, 10: true, 11: true, 12: true}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		all       = fs.Bool("all", false, "run every figure and table (with -ablations, the §4.6 ablations too)")
		fig       = fs.Int("fig", 0, "figure number to regenerate (2,3,4,8,9,10,11,12)")
		table     = fs.Int("table", 0, "table number to print (1,2)")
		report    = fs.String("report", "", "write the full markdown report to this file")
		quick     = fs.Bool("quick", false, "short traces and 2 cores (smoke test); -cores, -refs and -warmup still override")
		cores     = fs.Int("cores", 8, "simulated cores")
		refs      = fs.Int("refs", 500_000, "measured references per run")
		warmup    = fs.Int("warmup", 500_000, "warmup references per run")
		wl        = fs.String("workloads", "", "comma-separated benchmark subset")
		ablations = fs.Bool("ablations", false, "with -all, include the §4.6 ablation sweeps")
		consol    = fs.String("consolidation", "", "run a consolidation scenario and print the per-tenant-tier cross-scheme table: "+strings.Join(workloads.ConsolidationNames(), ", "))
		tenants   = fs.Int("tenants", 0, "override a consolidation preset's guest count (0 = preset)")
		churn     = fs.Int("churn", 0, "override a consolidation preset's shootdown-storm interval in records (-1 = off, 0 = preset)")
		phases    = fs.Int("phases", 0, "override a consolidation preset's working-set phase count (0 = preset)")
		csvDir    = fs.String("csv", "", "write per-figure CSV files into this directory")
		ckptPath  = fs.String("checkpoint", "", "append every completed cell to this journal file")
		resume    = fs.Bool("resume", false, "reuse cells already journaled in -checkpoint and run only the missing ones")
		timeout   = fs.Duration("timeout", 0, "per-workload simulation deadline (0 = none), e.g. 90s")

		sweepSpec  = fs.String("sweep", "", "run a design-space sweep over this grid, e.g. 'schemes=pom-tlb,tsb:pom-mb=4,8:pom-ways=2,4'")
		shards     = fs.Int("shards", runtime.GOMAXPROCS(0), "sweep worker shards (work-stealing pool size)")
		budget     = fs.Int("retry-budget", experiments.DefaultRetryBudget, "global retry budget shared by every sweep cell")
		quarAfter  = fs.Int("quarantine-after", experiments.DefaultQuarantineAfter, "per-cell attempt cap before a sweep cell is quarantined")
		sweepCSV   = fs.String("sweep-csv", "", "stream sweep results to this CSV file (default: stdout)")
		manifest   = fs.String("manifest", "", "write the sweep quarantine manifest (JSON) to this file")
		faultRate  = fs.Float64("fault-rate", 0, "chaos testing: per-cell probability of one injected transient failure")
		faultPanic = fs.Float64("fault-panic-rate", 0, "chaos testing: per-cell probability of an injected panic on every attempt")
		faultSeed  = fs.Uint64("fault-seed", 1, "seed for the deterministic chaos plan")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	actions := 0
	for _, given := range []bool{*all, *fig != 0, *table != 0, *report != "", *csvDir != "", *consol != "", *sweepSpec != ""} {
		if given {
			actions++
		}
	}
	switch {
	case actions != 1:
		return fmt.Errorf("pass exactly one of -all, -fig N, -table N, -report FILE, -csv DIR, -consolidation NAME or -sweep SPEC")
	case *ablations && !*all:
		return fmt.Errorf("-ablations requires -all")
	case *cores <= 0:
		return fmt.Errorf("-cores must be positive (got %d)", *cores)
	case *refs <= 0:
		return fmt.Errorf("-refs must be positive (got %d)", *refs)
	case *warmup < 0:
		return fmt.Errorf("-warmup must be non-negative (got %d)", *warmup)
	case *timeout < 0:
		return fmt.Errorf("-timeout must be non-negative (got %v)", *timeout)
	case *fig != 0 && !validFigs[*fig]:
		return fmt.Errorf("-fig %d: valid figures are 2, 3, 4, 8, 9, 10, 11, 12", *fig)
	case *table != 0 && *table != 1 && *table != 2:
		return fmt.Errorf("-table %d: valid tables are 1 and 2", *table)
	case *resume && *ckptPath == "":
		return fmt.Errorf("-resume requires -checkpoint FILE")
	case *shards <= 0:
		return fmt.Errorf("-shards must be positive (got %d)", *shards)
	case *budget <= 0:
		return fmt.Errorf("-retry-budget must be positive (got %d)", *budget)
	case *quarAfter < 1:
		return fmt.Errorf("-quarantine-after must be at least 1 (got %d)", *quarAfter)
	case *faultRate < 0 || *faultRate > 1:
		return fmt.Errorf("-fault-rate must be in [0, 1] (got %g)", *faultRate)
	case *faultPanic < 0 || *faultPanic > 1:
		return fmt.Errorf("-fault-panic-rate must be in [0, 1] (got %g)", *faultPanic)
	case *tenants < 0 || (*tenants > 0 && *tenants < 3):
		return fmt.Errorf("-tenants must be 0 (inherit) or at least 3 (got %d)", *tenants)
	case *churn < -1:
		return fmt.Errorf("-churn must be a positive interval, -1 (off) or 0 (inherit) (got %d)", *churn)
	case *phases < 0:
		return fmt.Errorf("-phases must be non-negative (got %d)", *phases)
	case *sweepSpec == "" && (*faultRate > 0 || *faultPanic > 0):
		return fmt.Errorf("-fault-rate/-fault-panic-rate require -sweep")
	case *sweepSpec == "" && (*sweepCSV != "" || *manifest != ""):
		return fmt.Errorf("-sweep-csv/-manifest require -sweep")
	}

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	// Flags given on the command line override either preset.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "cores":
			opts.Cores = *cores
		case "refs":
			opts.MaxRefs = *refs
		case "warmup":
			opts.WarmupRefs = *warmup
		}
	})
	if *wl != "" {
		opts.Workloads = strings.Split(*wl, ",")
		for _, n := range opts.Workloads {
			if _, ok := workloads.ByName(n); ok {
				continue
			}
			if _, ok := workloads.ConsolidationByName(n); ok {
				continue
			}
			return fmt.Errorf("unknown workload %q (known: %s; consolidation: %s)", n,
				strings.Join(workloads.Names(), ", "), strings.Join(workloads.ConsolidationNames(), ", "))
		}
	}
	opts.WorkloadTimeout = *timeout
	opts.Tenants = *tenants
	opts.ChurnEvery = *churn
	opts.Phases = *phases

	preset, ok := workloads.ConsolidationByName(*consol)
	if *consol != "" && !ok {
		return fmt.Errorf("unknown consolidation preset %q (known: %s)", *consol, strings.Join(workloads.ConsolidationNames(), ", "))
	}
	var spec experiments.Spec
	fingerprint := experiments.Fingerprint(opts)
	if *sweepSpec != "" {
		var err error
		if spec, err = experiments.ParseSpec(*sweepSpec); err != nil {
			return err
		}
		fingerprint = experiments.SweepFingerprint(opts, spec.Canonical())
	}
	journal, err := openJournal(out, *ckptPath, *resume, fingerprint)
	if err != nil {
		return err
	}
	defer journal.Close()

	if *sweepSpec != "" {
		return runSweep(ctx, out, opts, spec, journal, sweepFlags{
			shards:          *shards,
			retryBudget:     *budget,
			quarantineAfter: *quarAfter,
			csvPath:         *sweepCSV,
			manifestPath:    *manifest,
			faultRate:       *faultRate,
			faultPanicRate:  *faultPanic,
			faultSeed:       *faultSeed,
		})
	}

	r := experiments.NewRunner(opts, journal)
	if *consol != "" {
		fmt.Fprintf(out, "%s — %s\n\n", preset.Name, preset.Description)
		rows, err := experiments.ConsolidationTiers(ctx, r, preset.Name, nil)
		experiments.WriteConsolidationTiers(out, rows)
		return describeDegraded(out, err)
	}
	if *csvDir != "" {
		paths, err := experiments.WriteCSVs(ctx, *csvDir, r)
		for _, p := range paths {
			fmt.Fprintln(out, p)
		}
		return describeDegraded(out, err)
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			return err
		}
		defer f.Close()
		rerr := experiments.Report(ctx, f, r, true)
		fmt.Fprintf(out, "wrote %s\n", *report)
		return describeDegraded(out, rerr)
	}
	if *all {
		return describeDegraded(out, experiments.Report(ctx, out, r, *ablations))
	}

	switch {
	case *table == 1:
		fmt.Fprint(out, experiments.Table1())
	case *table == 2:
		fmt.Fprint(out, experiments.Table2())
	case *fig == 2:
		rows, err := experiments.Figure2(ctx, r)
		names, vals := make([]string, len(rows)), make([]float64, len(rows))
		for i, row := range rows {
			names[i], vals[i] = row.Name, row.SimCyc
		}
		fmt.Fprint(out, experiments.RenderBars("Figure 2 — simulated baseline cycles per L2 TLB miss", names, vals, "cyc"))
		return describeDegraded(out, err)
	case *fig == 3:
		rows, err := experiments.Figure3(ctx, r)
		names, vals := make([]string, len(rows)), make([]float64, len(rows))
		for i, row := range rows {
			names[i], vals[i] = row.Name, row.SimRatio
		}
		fmt.Fprint(out, experiments.RenderBars("Figure 3 — virtualized / native translation cost", names, vals, "x"))
		return describeDegraded(out, err)
	case *fig == 4:
		t := stats.NewTable("capacity", "normalized latency")
		for _, pt := range experiments.Figure4() {
			t.AddRow(fmt.Sprintf("%dKB", pt.CapacityBytes>>10), fmt.Sprintf("%.2f", pt.Normalized))
		}
		fmt.Fprint(out, t.String())
	case *fig == 8:
		rows, sum, err := experiments.Figure8(ctx, r)
		t := stats.NewTable("benchmark", "POM-TLB %", "Shared_L2 %", "TSB %")
		for _, row := range rows {
			t.AddRow(row.Name, fmt.Sprintf("%.2f", row.POM),
				fmt.Sprintf("%.2f", row.Shared), fmt.Sprintf("%.2f", row.TSB))
		}
		if len(rows) > 0 {
			t.AddRow("GEOMEAN", fmt.Sprintf("%.2f", sum.POMGeomeanPct),
				fmt.Sprintf("%.2f", sum.SharedGeomeanPct), fmt.Sprintf("%.2f", sum.TSBGeomeanPct))
		}
		fmt.Fprint(out, t.String())
		return describeDegraded(out, err)
	case *fig == 9:
		rows, err := experiments.Figure9(ctx, r)
		t := stats.NewTable("benchmark", "L2D$", "L3D$", "POM-TLB", "walk elim")
		for _, row := range rows {
			t.AddRow(row.Name, stats.Pct(row.L2D), stats.Pct(row.L3D),
				stats.Pct(row.POM), stats.Pct(row.WalkEl))
		}
		fmt.Fprint(out, t.String())
		return describeDegraded(out, err)
	case *fig == 10:
		rows, err := experiments.Figure10(ctx, r)
		t := stats.NewTable("benchmark", "size acc", "bypass acc")
		for _, row := range rows {
			t.AddRow(row.Name, stats.Pct(row.SizeAcc), stats.Pct(row.BypassAcc))
		}
		fmt.Fprint(out, t.String())
		return describeDegraded(out, err)
	case *fig == 11:
		rows, err := experiments.Figure11(ctx, r)
		names, vals := make([]string, len(rows)), make([]float64, len(rows))
		for i, row := range rows {
			names[i], vals[i] = row.Name, 100*row.RBH
		}
		fmt.Fprint(out, experiments.RenderBars("Figure 11 — POM-TLB row-buffer hit rate", names, vals, "%"))
		return describeDegraded(out, err)
	case *fig == 12:
		rows, withAvg, noAvg, err := experiments.Figure12(ctx, r)
		t := stats.NewTable("benchmark", "with caching %", "without %")
		for _, row := range rows {
			t.AddRow(row.Name, fmt.Sprintf("%.2f", row.WithCache), fmt.Sprintf("%.2f", row.NoCache))
		}
		if len(rows) > 0 {
			t.AddRow("GEOMEAN", fmt.Sprintf("%.2f", withAvg), fmt.Sprintf("%.2f", noAvg))
		}
		fmt.Fprint(out, t.String())
		return describeDegraded(out, err)
	}
	return nil
}

// openJournal opens the -checkpoint journal (nil, and inert, when path is
// empty) for a campaign or sweep with the given fingerprint. Without
// -resume an existing file is refused rather than continued by accident;
// a torn trailing record and, on resume, the journaled cell count are
// reported before any cell runs.
func openJournal(out io.Writer, path string, resume bool, fingerprint string) (*experiments.SweepJournal, error) {
	if path == "" {
		return nil, nil
	}
	if !resume {
		if _, err := os.Stat(path); err == nil {
			return nil, fmt.Errorf("journal %s already exists; pass -resume to continue it or remove the file", path)
		}
	}
	j, err := experiments.OpenSweepJournal(path, fingerprint)
	if err != nil {
		return nil, err
	}
	if n := j.TruncatedRecords(); n > 0 {
		fmt.Fprintf(out, "journal %s: dropped %d torn trailing record(s) left by an interrupted append\n", path, n)
	}
	if resume && j.Len() > 0 {
		fmt.Fprintf(out, "resuming: %d cell(s) already journaled in %s\n", j.Len(), path)
	}
	return j, nil
}

// sweepFlags carries the validated -sweep command line into runSweep.
type sweepFlags struct {
	shards          int
	retryBudget     int
	quarantineAfter int
	csvPath         string
	manifestPath    string
	faultRate       float64
	faultPanicRate  float64
	faultSeed       uint64
}

// runSweep drives one design-space sweep over the parsed grid: optionally
// seed the chaos plan, run the sharded engine on the journal, then emit
// the CSV, the quarantine manifest, and a one-line summary. A sweep with
// quarantined cells still emits everything and then exits non-zero, so
// automation notices the degradation without losing the completed grid.
func runSweep(ctx context.Context, out io.Writer, opts experiments.Options, spec experiments.Spec,
	journal *experiments.SweepJournal, f sweepFlags) error {
	cfg := experiments.SweepConfig{
		Base:            opts,
		Spec:            spec,
		Shards:          f.shards,
		RetryBudget:     f.retryBudget,
		QuarantineAfter: f.quarantineAfter,
		Journal:         journal,
	}

	names := opts.Workloads
	if len(names) == 0 {
		names = workloads.Names()
	}
	if f.faultRate > 0 || f.faultPanicRate > 0 {
		s := faultinject.NewSchedule()
		plan := experiments.SeedChaos(s, spec.Cells(names), f.faultPanicRate, f.faultRate, f.faultSeed)
		cfg.Faults = s
		fmt.Fprintf(out, "chaos plan (seed %d): %d cell(s) panic, %d flaky\n",
			f.faultSeed, len(plan.Panicked), len(plan.Flaky))
	}

	// The CSV streams to a temp file renamed into place only when the
	// sweep ran to completion: a killed run leaves no half-written
	// sweep.csv, and the journal already preserves every finished cell
	// for the resume to replay.
	var tmp *os.File
	if f.csvPath != "" {
		var err error
		tmp, err = os.CreateTemp(filepath.Dir(f.csvPath), filepath.Base(f.csvPath)+".tmp-*")
		if err != nil {
			return err
		}
		defer func() {
			if tmp != nil {
				tmp.Close()
				os.Remove(tmp.Name())
			}
		}()
		cfg.CSV = tmp
		cfg.Progress = out
	} else {
		cfg.CSV = out
	}

	rep, runErr := experiments.RunSweep(ctx, cfg)
	if rep == nil {
		return runErr
	}
	if tmp != nil && runErr == nil {
		name := tmp.Name()
		if err := tmp.Sync(); err != nil {
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		if err := os.Rename(name, f.csvPath); err != nil {
			return err
		}
		tmp = nil
		fmt.Fprintf(out, "wrote %s (%d row(s))\n", f.csvPath, rep.Completed)
	}

	budgetLeft := "unlimited"
	if rep.BudgetRemaining >= 0 {
		budgetLeft = fmt.Sprintf("%d left", rep.BudgetRemaining)
	}
	fmt.Fprintf(out, "sweep: %d/%d cell(s) completed (%d from journal, %d retried, %d quarantined, retry budget %s)\n",
		rep.Completed, rep.Total, rep.FromJournal, rep.Retried, len(rep.Quarantined), budgetLeft)

	if f.manifestPath != "" {
		mf, err := os.Create(f.manifestPath)
		if err != nil {
			return err
		}
		if err := rep.WriteManifest(mf); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote quarantine manifest %s\n", f.manifestPath)
	} else if len(rep.Quarantined) > 0 && runErr == nil {
		if err := rep.WriteManifest(out); err != nil {
			return err
		}
	}

	if runErr != nil {
		return runErr
	}
	if n := len(rep.Quarantined); n > 0 {
		return fmt.Errorf("sweep degraded: %d of %d cell(s) quarantined (the rest completed; see the manifest)", n, rep.Total)
	}
	return nil
}

// describeDegraded turns a campaign's aggregate error into a short
// explanation after the partial rows have already been emitted, so an
// interrupted or degraded run never hides the work that completed.
func describeDegraded(out io.Writer, err error) error {
	if err == nil {
		return nil
	}
	var ce *experiments.CampaignError
	if errors.As(err, &ce) {
		fmt.Fprintf(out, "\npartial results above; %d cell(s) did not complete.\n", len(ce.Failures))
	}
	return err
}
