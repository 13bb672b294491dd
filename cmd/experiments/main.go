// Command experiments regenerates the paper's tables and figures, and
// runs design-space sweeps over the workload × scheme × geometry grid.
//
// Usage:
//
//	experiments -all                      # every figure and table
//	experiments -all -ablations           # ... plus the §4.6 ablations
//	experiments -fig 8                    # one figure's report section
//	experiments -table 2                  # one table
//	experiments -report EXPERIMENTS.md    # write the full markdown report
//	experiments -quick -fig 8             # short traces, 2 cores
//	experiments -consolidation consol-zipf        # per-tenant-tier table
//	experiments -workloads consol-churn -tenants 200 -churn 5000 -fig 8
//	experiments -all -checkpoint c.journal          # journal completed cells
//	experiments -all -checkpoint c.journal -resume  # skip journaled cells
//
//	experiments -sweep 'schemes=pom-tlb,tsb:pom-mb=4,8,16:pom-ways=2,4' \
//	    -shards 8 -sweep-csv sweep.csv -manifest quarantine.json \
//	    -checkpoint sweep.journal [-resume]
//
// Sweeps run the grid on -shards workers. Every cell gets one attempt
// inside the resilience envelope; a failed cell is quarantined into the
// -manifest instead of aborting the sweep, and -resume runs it again. In
// every mode the -checkpoint journal is append-only and fsynced per cell,
// so even a SIGKILL mid-run resumes with exactly the missing cells.
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
	"slices"
	"strings"
	"syscall"

	"repro/internal/experiments"
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

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		all       = fs.Bool("all", false, "run every figure and table (with -ablations, the §4.6 ablations too)")
		fig       = fs.Int("fig", 0, fmt.Sprintf("print the report's section for this figure, one of %v", experiments.Figures))
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
		shards     = fs.Int("shards", runtime.GOMAXPROCS(0), "sweep worker count")
		sweepCSV   = fs.String("sweep-csv", "", "stream sweep results to this CSV file (default: stdout)")
		manifest   = fs.String("manifest", "", "write the sweep quarantine manifest (JSON) to this file")
		faultPanic = fs.Float64("fault-panic-rate", 0, "chaos testing: per-cell probability of an injected panic whenever the cell runs")
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
	case *fig != 0 && !slices.Contains(experiments.Figures, *fig):
		return fmt.Errorf("-fig %d: valid figures are %v", *fig, experiments.Figures)
	case *table != 0 && *table != 1 && *table != 2:
		return fmt.Errorf("-table %d: valid tables are 1 and 2", *table)
	case *resume && *ckptPath == "":
		return fmt.Errorf("-resume requires -checkpoint FILE")
	case *shards <= 0:
		return fmt.Errorf("-shards must be positive (got %d)", *shards)
	case *faultPanic < 0 || *faultPanic > 1:
		return fmt.Errorf("-fault-panic-rate must be in [0, 1] (got %g)", *faultPanic)
	case *tenants < 0 || (*tenants > 0 && *tenants < 3):
		return fmt.Errorf("-tenants must be 0 (inherit) or at least 3 (got %d)", *tenants)
	case *churn < -1:
		return fmt.Errorf("-churn must be a positive interval, -1 (off) or 0 (inherit) (got %d)", *churn)
	case *phases < 0:
		return fmt.Errorf("-phases must be non-negative (got %d)", *phases)
	case *sweepSpec == "" && *faultPanic > 0:
		return fmt.Errorf("-fault-panic-rate requires -sweep")
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
			shards:         *shards,
			csvPath:        *sweepCSV,
			manifestPath:   *manifest,
			faultPanicRate: *faultPanic,
			faultSeed:      *faultSeed,
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

	switch *table {
	case 1:
		fmt.Fprint(out, experiments.Table1())
	case 2:
		fmt.Fprint(out, experiments.Table2())
	default:
		return describeDegraded(out, experiments.WriteFigure(ctx, out, r, *fig))
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
	shards         int
	csvPath        string
	manifestPath   string
	faultPanicRate float64
	faultSeed      uint64
}

// runSweep drives one design-space sweep over the parsed grid: optionally
// seed the chaos plan, run the engine on the journal, then emit
// the CSV, the quarantine manifest, and a one-line summary. A sweep with
// quarantined cells still emits everything and then exits non-zero, so
// automation notices the degradation without losing the completed grid.
func runSweep(ctx context.Context, out io.Writer, opts experiments.Options, spec experiments.Spec,
	journal *experiments.SweepJournal, f sweepFlags) error {
	cfg := experiments.SweepConfig{
		Base:    opts,
		Spec:    spec,
		Shards:  f.shards,
		Journal: journal,
	}

	names := opts.Workloads
	if len(names) == 0 {
		names = workloads.Names()
	}
	if f.faultPanicRate > 0 {
		var plan experiments.ChaosPlan
		cfg.Base.Faults, plan = experiments.SeedChaos(spec.Cells(names), f.faultPanicRate, f.faultSeed)
		fmt.Fprintf(out, "chaos plan (seed %d): %d cell(s) panic\n", f.faultSeed, len(plan.Panicked))
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

	fmt.Fprintf(out, "sweep: %d/%d cell(s) completed (%d from journal, %d quarantined)\n",
		rep.Completed, rep.Total, rep.FromJournal, len(rep.Quarantined))

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
