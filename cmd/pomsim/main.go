// Command pomsim runs one POM-TLB simulation and prints its statistics.
// A Table 2 or scenario run is the experiments campaign's own cell
// (experiments.SimulateCell), and -compare prints the campaign's
// cross-scheme table, or a scenario's per-tier table, over every
// registered scheme.
//
// Usage:
//
//	pomsim -workload mcf -mode pom-tlb -cores 8 -refs 500000
//	pomsim -workload mcf -compare                       # every scheme
//	pomsim -workload consol-zipf -compare               # consolidation scenario
//	pomsim -workload consol-churn -tenants 200 -churn 5000
//	pomsim -config experiment.json
//	pomsim -list
//
// SIGINT/SIGTERM cancel an in-flight simulation; pomsim exits non-zero
// with a message saying how far the run got.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/pomtlb"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pomsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pomsim", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "mcf", "Table 2 benchmark name")
		mode     = fs.String("mode", "pom-tlb", "translation scheme: "+strings.Join(core.ModeNames(), ", "))
		cores    = fs.Int("cores", 8, "simulated cores")
		vms      = fs.Int("vms", 1, "virtual machines")
		refs     = fs.Int("refs", 500_000, "measured memory references")
		warmup   = fs.Int("warmup", 500_000, "warmup references")
		pomMB    = fs.Uint64("pom-mb", 16, "POM-TLB capacity in MB")
		native   = fs.Bool("native", false, "bare-metal run (no virtualization)")
		seed     = fs.Uint64("seed", 1, "trace generator seed")
		cfgPath  = fs.String("config", "", "JSON config file naming the whole machine and workload (excludes the flags that set them)")
		trcPath  = fs.String("trace", "", "replay a binary trace file instead of the synthetic generator")
		jsonOut  = fs.Bool("json", false, "emit the full result as JSON instead of the summary table")
		compare  = fs.Bool("compare", false, "run every scheme on the workload and print the cross-scheme table (a scenario's: per tier)")
		selfchk  = fs.Bool("selfcheck", false, "run the differential-verification matrix (workloads × schemes under lockstep reference models) and exit non-zero on any divergence")
		list     = fs.Bool("list", false, "list workloads and exit")
		tenants  = fs.Int("tenants", 0, "consolidation: override the preset's guest count (0 = preset)")
		churn    = fs.Int("churn", 0, "consolidation: override the storm interval in records (-1 = off, 0 = preset)")
		phases   = fs.Int("phases", 0, "consolidation: override the working-set phase count (0 = preset)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// Validate flag values up front so a bad invocation fails with a
	// usage error instead of a panic from deep inside the simulator.
	switch {
	case *cores <= 0:
		return fmt.Errorf("-cores must be positive (got %d)", *cores)
	case *cores > 256:
		return fmt.Errorf("-cores must be at most 256 (got %d; trace threads are 8-bit)", *cores)
	case *vms <= 0:
		return fmt.Errorf("-vms must be positive (got %d)", *vms)
	case *refs <= 0:
		return fmt.Errorf("-refs must be positive (got %d)", *refs)
	case *warmup < 0:
		return fmt.Errorf("-warmup must be non-negative (got %d)", *warmup)
	case *pomMB == 0:
		return fmt.Errorf("-pom-mb must be positive")
	case *trcPath != "" && (*compare || *selfchk):
		return fmt.Errorf("-trace cannot be combined with -compare/-selfcheck, which run the synthetic generators")
	case *tenants < 0 || (*tenants > 0 && *tenants < 3):
		return fmt.Errorf("-tenants must be 0 (inherit) or at least 3 (got %d)", *tenants)
	case *churn < -1:
		return fmt.Errorf("-churn must be a positive interval, -1 (off) or 0 (inherit) (got %d)", *churn)
	case *phases < 0:
		return fmt.Errorf("-phases must be non-negative (got %d)", *phases)
	}
	if *list {
		for _, name := range workloads.Names() {
			fmt.Fprintln(out, name)
		}
		for _, c := range workloads.Consolidations() {
			fmt.Fprintf(out, "%s — %s\n", c.Name, c.Description)
		}
		return nil
	}

	// One set of campaign options carries the machine, from the -config
	// file or the flags (whose defaults are DefaultOptions'), to every
	// path below.
	opts := experiments.DefaultOptions()
	name := *workload
	if *cfgPath != "" {
		var machine []string
		for _, f := range []string{"mode", "cores", "vms", "native", "refs", "warmup", "seed", "pom-mb", "workload"} {
			if set[f] {
				machine = append(machine, "-"+f)
			}
		}
		if len(machine) > 0 {
			return fmt.Errorf("%s cannot be combined with -config, whose file sets the whole machine and workload; put them in %s",
				strings.Join(machine, ", "), *cfgPath)
		}
		file, err := config.Load(*cfgPath)
		if err != nil {
			return err
		}
		opts.Config, name = file.Config, file.Workload
	} else {
		m, err := core.ParseMode(*mode)
		if err != nil {
			return err
		}
		opts.Mode, opts.Cores, opts.VMs, opts.Virtualized = m, *cores, *vms, !*native
		opts.MaxRefs, opts.WarmupRefs, opts.Seed = *refs, *warmup, *seed
		if opts.POM.SizeBytes, err = pomtlb.MBToBytes(*pomMB); err != nil {
			return fmt.Errorf("-pom-mb: %w", err)
		}
	}
	opts.Workloads = []string{name}
	opts.Tenants, opts.ChurnEvery, opts.Phases = *tenants, *churn, *phases

	preset, isConsol := workloads.ConsolidationByName(name)
	if !isConsol && (set["tenants"] || set["churn"] || set["phases"]) {
		return fmt.Errorf("-tenants/-churn/-phases apply only to consolidation scenarios, not %q", name)
	}
	if isConsol {
		// The scenario builds its own machine: virtualized, one VM per
		// guest.
		switch {
		case *cfgPath != "":
			return fmt.Errorf("%s names consolidation scenario %q; config files name Table 2 benchmarks", *cfgPath, name)
		case *native:
			return fmt.Errorf("-native does not apply to consolidation scenario %q, which virtualizes every guest", name)
		case set["vms"]:
			return fmt.Errorf("-vms does not apply to consolidation scenario %q, which runs one VM per guest (see -tenants)", name)
		case *trcPath != "":
			return fmt.Errorf("-trace replay cannot drive consolidation scenario %q", name)
		}
	} else if *trcPath != "" {
		return runReplay(ctx, out, opts.Config, *trcPath, *jsonOut)
	}
	p, isProfile := workloads.ByName(name)
	if !isConsol && !isProfile {
		return fmt.Errorf("unknown workload %q (try -list)", name)
	}

	switch {
	case *selfchk:
		return runSelfCheck(ctx, out, opts.Config)
	case *compare && isConsol:
		fmt.Fprintf(out, "scenario %s — all schemes, identical tenant plan\n\n", name)
		rows, err := experiments.ConsolidationTiers(ctx, experiments.NewRunner(opts, nil), name, core.Modes())
		experiments.WriteConsolidationTiers(out, rows)
		return err
	case *compare:
		fmt.Fprintf(out, "workload %s — all schemes, identical trace\n\n", name)
		rows, err := experiments.CrossScheme(ctx, experiments.NewRunner(opts, nil))
		experiments.WriteCrossScheme(out, rows)
		return err
	}
	res, err := experiments.SimulateCell(ctx, opts, experiments.Cell{Workload: name, Mode: opts.Mode})
	if err != nil {
		return err
	}
	if *jsonOut {
		return writeJSON(out, res)
	}
	if isConsol {
		guests := preset.Guests
		if opts.Tenants > 0 {
			guests = opts.Tenants
		}
		printResult(out, fmt.Sprintf("%s (%d guests) — %s", name, guests, preset.Description), nil, false, res)
	} else {
		printResult(out, fmt.Sprintf("%s (%s, %d MB footprint, %.1f%% large pages)",
			name, p.Pattern, p.FootprintBytes>>20, p.LargePagePct), &p, opts.Virtualized, res)
	}
	return nil
}

// runReplay simulates a POMTRC01 trace file. A replay has no Table 2
// identity: its walks are simulated, and its report names the file,
// with no footprint and no modelled improvement over a measured
// baseline.
func runReplay(ctx context.Context, out io.Writer, cfg core.Config, path string, jsonOut bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	replay, err := trace.LoadReplay(f)
	switch {
	case errors.Is(err, trace.ErrBadMagic):
		return fmt.Errorf("%s is not a POMTRC01 trace (%v); generate one with cmd/tracegen", path, err)
	case errors.Is(err, trace.ErrTruncated):
		return fmt.Errorf("%s is cut off mid-stream (%v); the recording was interrupted — regenerate it with cmd/tracegen", path, err)
	case err != nil:
		return err
	}
	// One full pass wraps the replay back to its first record.
	var threads core.Threads
	for i := 0; i < replay.Len(); i++ {
		threads.Add(replay.Next().Thread)
	}
	if err := threads.CheckCores(cfg.Cores); err != nil {
		return fmt.Errorf("%s on %d cores: %w; pass a -cores that gives every core one of the trace's threads", path, cfg.Cores, err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	res, err := sys.Run(ctx, replay, path)
	if err != nil {
		return err
	}
	if jsonOut {
		return writeJSON(out, res)
	}
	printResult(out, path, nil, cfg.Virtualized, res)
	return nil
}

// writeJSON emits the full result as indented JSON.
func writeJSON(out io.Writer, res core.Result) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// printResult renders one run: the workload line, the scheme's metrics,
// a consolidation scenario's per-tenant-tier table, and, for a Table 2
// profile p, the improvement modelled over its measured baseline. A trace
// replay and a scenario pass no profile.
func printResult(out io.Writer, workload string, p *workloads.Profile, virtualized bool, res core.Result) {
	fmt.Fprintf(out, "workload  %s\n", workload)
	fmt.Fprintf(out, "scheme    %s\n", res.Mode)
	fmt.Fprintf(out, "refs      %d  (IPC %.3f)\n\n", res.Records, res.IPC())

	t := stats.NewTable("metric", "value")
	t.AddRow("L1 TLB hit", stats.Pct(res.L1TLB.Ratio()))
	t.AddRow("L2 TLB hit", stats.Pct(res.L2TLB.Ratio()))
	t.AddRow("P_avg (cycles per L2 TLB miss)", fmt.Sprintf("%.1f", res.AvgPenalty()))
	t.AddRow("page walks eliminated", stats.Pct(res.WalkEliminationRate()))
	if res.L2DProbe.Total() > 0 {
		t.AddRow("POM set hits in L2D$", stats.Pct(res.L2DProbe.Ratio()))
		t.AddRow("POM set hits in L3D$", stats.Pct(res.L3DProbe.Ratio()))
	}
	if res.POMDRAM.Total() > 0 {
		t.AddRow("POM-TLB (DRAM) hit", stats.Pct(res.POMDRAM.Ratio()))
		t.AddRow("POM-TLB row-buffer hit", stats.Pct(res.POMDRAMStats.RowBufferHitRate()))
	}
	if res.SizePred.Total() > 0 {
		t.AddRow("size predictor accuracy", stats.Pct(res.SizePred.Ratio()))
	}
	if res.BypassPred.Total() > 0 {
		t.AddRow("bypass predictor accuracy", stats.Pct(res.BypassPred.Ratio()))
	}
	if res.SharedTLB.Total() > 0 {
		t.AddRow("shared TLB hit", stats.Pct(res.SharedTLB.Ratio()))
	}
	if res.TSBLookups.Total() > 0 {
		t.AddRow("TSB hit", stats.Pct(res.TSBLookups.Ratio()))
	}
	if res.Victima.Total() > 0 {
		t.AddRow("Victima store hit", stats.Pct(res.Victima.Ratio()))
	}
	// The stacked DRAM cache: dram-cache's holds page-walk references,
	// l4-cache's every reference.
	stacked, stackedDRAM, label := res.DCache, res.DCacheDRAM, "walk DRAM-cache"
	if res.L4Cache.Access[cache.Data].Total() > 0 {
		stacked, stackedDRAM, label = res.L4Cache, res.L4DRAMStats, "L4 DRAM-cache"
	}
	if stacked.Access[cache.Data].Total() > 0 {
		t.AddRow(label+" hit", stats.Pct(stacked.Access[cache.Data].Ratio()))
		t.AddRow(label+" row-buffer hit", stats.Pct(stackedDRAM.RowBufferHitRate()))
	}
	t.AddRow("mean data-access latency", fmt.Sprintf("%.1f cycles", res.DataLat.Value()))
	fmt.Fprint(out, t.String())

	if res.HasTiers() {
		fmt.Fprintln(out)
		tt := stats.NewTable("tier", "ref share", "SRAM TLB hit", "walk elim", "P_avg")
		for tier := 0; tier < core.NumTiers; tier++ {
			tt.AddRow(core.TierNames[tier],
				stats.Pct(res.TierShare(tier)),
				stats.Pct(res.TierSRAMHitRatio(tier)),
				stats.Pct(res.TierWalkElim(tier)),
				fmt.Sprintf("%.1f", res.TierAvgPenalty(tier)))
		}
		fmt.Fprint(out, tt.String())
	}

	if p != nil && core.CalibratedWalks(res.Mode) {
		imp := perfmodel.ImprovementPct(perfmodel.FromProfile(*p, virtualized, res.AvgPenalty()))
		fmt.Fprintf(out, "\nmodelled improvement over measured baseline: %.2f%%\n", imp)
	}

	fmt.Fprintf(out, "\nresolved at: ")
	for lvl := core.ResL1TLB; lvl < core.ResWalk+1; lvl++ {
		if n := res.Resolved[lvl]; n > 0 {
			fmt.Fprintf(out, "%s=%d ", lvl, n)
		}
	}
	fmt.Fprintln(out)
}

// selfCheckWorkloads span the access-pattern space: uniformly random
// (gups), pointer-chasing with locality (mcf), and bursty graph
// traversal (graph500). Three patterns × every registered scheme exercise
// every production structure against its reference model.
var selfCheckWorkloads = []string{"gups", "mcf", "graph500"}

// runSelfCheck executes the differential-verification matrix: each
// workload runs under each registered translation scheme with lockstep
// reference models attached to every TLB, cache, DRAM channel and POM-TLB
// partition, plus periodic structural-invariant sweeps and result
// accounting checks. Any divergence fails the command.
func runSelfCheck(ctx context.Context, out io.Writer, base core.Config) error {
	t := stats.NewTable("workload", "scheme", "decisions", "divergences", "status")
	failed := false
	for _, name := range selfCheckWorkloads {
		p, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("selfcheck workload %q missing", name)
		}
		for _, mode := range core.Modes() {
			cfg := base
			cfg.Mode = mode
			sys, err := core.NewSystem(cfg)
			if err != nil {
				return err
			}
			sc := sys.EnableSelfCheck()
			res, err := sys.Run(ctx, p.Generator(cfg.Cores, cfg.Seed), p.Name)
			if err != nil {
				return err
			}
			status := "ok"
			if err := sc.Err(); err != nil {
				status = "FAIL"
				failed = true
				fmt.Fprintf(out, "%s/%s: %v\n%s\n", name, mode, err, sc.Report())
			} else if err := res.CheckAccounting(); err != nil {
				status = "FAIL"
				failed = true
				fmt.Fprintf(out, "%s/%s: %v\n", name, mode, err)
			}
			t.AddRow(name, mode.String(), fmt.Sprint(sc.Harness().Decisions()),
				fmt.Sprint(sc.Harness().Divergences()), status)
		}
	}
	fmt.Fprint(out, t.String())
	if failed {
		return fmt.Errorf("self-check found divergences")
	}
	fmt.Fprintln(out, "\nself-check clean: production models agree with reference models")
	return nil
}
