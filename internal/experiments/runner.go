// Package experiments regenerates every table and figure in the paper's
// evaluation (Section 3–4): it runs the simulator over the Table 2
// workload suite under each translation scheme, feeds the simulated
// penalties into the linear performance model, and formats the same rows
// and series the paper reports.
//
// Campaigns are resilient: every (workload, scheme) cell is an
// independently failable job, run by the same engine as a design-space
// sweep (RunSweep). Worker panics are recovered into structured
// *WorkloadError values, cells honor per-workload timeouts and campaign
// cancellation, completed cells are appended to an optional SweepJournal,
// and the figure layer returns partial results plus a *CampaignError
// instead of crashing — one degenerate workload degrades a multi-hour
// sweep instead of destroying it.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
	"repro/internal/workloads"
)

// Options controls an evaluation campaign: the simulated machine every
// cell runs on, plus the few settings only a campaign decides. Each cell
// names its own scheme, so the embedded Config's Mode is ignored.
type Options struct {
	core.Config

	// Workloads restricts the campaign to a subset of Table 2 benchmark
	// names (nil = all 15).
	Workloads []string
	// UncalibratedWalks simulates every page walk reference-by-reference
	// even in scheme runs. By default scheme runs charge walks at the
	// workload's measured baseline penalty (Table 2), the way the paper
	// combines hardware measurement with scheme simulation (§3.3).
	UncalibratedWalks bool

	// Tenants, ChurnEvery and Phases apply to consolidation-scenario
	// workloads only (names resolved via workloads.ConsolidationByName):
	// they override the preset's guest count, shootdown-storm interval
	// (records) and per-tenant working-set phase count. 0 inherits the
	// preset; they are the sweep engine's tenants=/churn=/phases= axes.
	Tenants    int
	ChurnEvery int
	Phases     int

	// WorkloadTimeout bounds each cell's simulation; a cell that exceeds
	// it fails with context.DeadlineExceeded while the rest of the
	// campaign continues (0 = no per-job deadline).
	WorkloadTimeout time.Duration
	// Faults is the deterministic fault-injection plan (nil in
	// production). The engine fires faultinject.SweepCellSite(key) once
	// per simulated cell; SimulateCell fires faultinject.WorkerSite(
	// workload, scheme), wires faultinject.DRAMSite into both DRAM
	// substrates, and wraps trace generators for faultinject.TraceSite
	// record corruption.
	Faults *faultinject.Schedule
}

// DefaultOptions returns the paper's 8-core virtualized campaign (Table 1)
// at a laptop-friendly trace length.
func DefaultOptions() Options {
	o := Options{Config: core.DefaultConfig()}
	o.WarmupRefs, o.MaxRefs = 500_000, 500_000
	return o
}

// QuickOptions returns a much shorter campaign for tests and smoke runs.
func QuickOptions() Options {
	o := Options{Config: core.DefaultConfig()}
	o.Cores, o.WarmupRefs, o.MaxRefs = 2, 120_000, 60_000
	return o
}

// config returns the simulated machine for one scheme under these
// options, with the fault plan's DRAM hook wired into both substrates.
func (o Options) config(mode core.Mode) core.Config {
	cfg := o.Config
	cfg.Mode = mode
	if o.Faults != nil {
		hook := o.Faults.Hook(faultinject.DRAMSite)
		cfg.DDR.FaultHook = hook
		cfg.POM.DRAM.FaultHook = hook
	}
	return cfg
}

// Runner memoizes simulation results across figures so each
// (workload, scheme) pair runs at most once per campaign. It is a memo
// over the sweep engine: the cells it has no outcome for run through
// runCells, one attempt each, on the runner's journal.
type Runner struct {
	opts    Options
	journal *SweepJournal
	// variant labels the failures of a derived campaign (an ablation
	// point, the native or uncalibrated re-run); "" for the main one.
	variant string

	// mu serializes engine runs, so concurrent callers never simulate
	// one cell twice, and guards the memo, keyed by Cell.Key.
	mu       sync.Mutex
	results  map[string]core.Result
	failures map[string]*WorkloadError
}

// NewRunner creates a runner for the options. A non-nil journal, opened
// under Fingerprint(opts), serves the cells it already holds without
// re-simulating and records each newly completed one — the -checkpoint
// and -resume path of cmd/experiments.
func NewRunner(opts Options, journal *SweepJournal) *Runner {
	return &Runner{
		opts:     opts,
		journal:  journal,
		results:  map[string]core.Result{},
		failures: map[string]*WorkloadError{},
	}
}

// variantRunner creates an unjournaled runner for a campaign derived from
// the main one under other options; its failures carry the variant label.
func variantRunner(opts Options, variant string) *Runner {
	r := NewRunner(opts, nil)
	r.variant = variant
	return r
}

// Options returns the campaign options.
func (r *Runner) Options() Options { return r.opts }

// Result returns the memoized outcome of one workload under one scheme,
// running the cell first if it has none. Journaled cells are served
// without re-simulating; fresh cells run under the per-workload timeout
// with panic recovery, and failures come back as structured
// *WorkloadError values.
func (r *Runner) Result(ctx context.Context, name string, mode core.Mode) (core.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := Cell{Workload: name, Mode: mode}
	r.run(ctx, []Cell{c})
	return r.outcome(ctx, c)
}

// Prefetch runs the given (workload × mode) grid under ctx so later
// figure extraction is instant, waiting for every cell. Unlike a
// fail-fast errgroup, it always drains the whole grid — one failed cell
// must not abandon the others' in-flight work — and aggregates every
// failure into a *CampaignError (nil when clean).
func (r *Runner) Prefetch(ctx context.Context, names []string, modes []core.Mode) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cells []Cell
	for _, n := range names {
		for _, m := range modes {
			cells = append(cells, Cell{Workload: n, Mode: m})
		}
	}
	r.run(ctx, cells)
	var fails []*WorkloadError
	for _, c := range cells {
		if _, err := r.outcome(ctx, c); err != nil {
			fails = append(fails, asWorkloadError(err, c.Workload, c.Mode))
		}
	}
	return campaignError(fails)
}

// run passes the engine, in one call, every cell with neither a result
// nor a failure, and memoizes what comes back. Caller holds r.mu.
func (r *Runner) run(ctx context.Context, cells []Cell) {
	var todo []Cell
	queued := map[string]bool{}
	for _, c := range cells {
		key := c.Key()
		_, done := r.results[key]
		_, failed := r.failures[key]
		if done || failed || queued[key] {
			continue
		}
		queued[key] = true
		c.Index = len(todo)
		todo = append(todo, c)
	}
	if len(todo) == 0 {
		return
	}
	// The error only reports a cancellation, which outcome turns into
	// each unreached cell's failure.
	rep, _ := runCells(ctx, SweepConfig{Base: r.opts, Journal: r.journal, Collect: true}, todo)
	for _, cr := range rep.Results {
		r.results[cr.Cell.Key()] = cr.Res
	}
	for _, q := range rep.Quarantined {
		r.failures[q.Key] = r.fail(q.Err, q.Workload, core.Mode(q.Scheme))
	}
}

// outcome returns a cell's memoized result or failure. A cell with
// neither was never reached by a cancelled run: it fails with ctx's
// error and stays unrun. Caller holds r.mu.
func (r *Runner) outcome(ctx context.Context, c Cell) (core.Result, error) {
	key := c.Key()
	if res, ok := r.results[key]; ok {
		return res, nil
	}
	if we, ok := r.failures[key]; ok {
		return core.Result{}, we
	}
	return core.Result{}, &WorkloadError{Workload: c.Workload, Mode: c.Mode, Variant: r.variant, Err: ctx.Err()}
}

// fail attributes a cell's error to the cell and to this runner's variant.
func (r *Runner) fail(err error, name string, mode core.Mode) *WorkloadError {
	we := asWorkloadError(err, name, mode)
	if we.Variant == "" {
		we.Variant = r.variant
	}
	return we
}

// SimulateCell runs exactly one (workload, scheme) simulation under the
// resilience envelope: the job runs under opts.WorkloadTimeout, panics
// anywhere in the simulation stack — substrate constructors, trace
// generation, the core loop — are recovered into the returned
// *WorkloadError, and a result that breaks the Result accounting
// identities fails the cell. It performs no memoization, journaling or
// concurrency limiting: the engine's cell loop (runCells) adds those
// around it, with per-cell geometry in opts.
func SimulateCell(ctx context.Context, opts Options, name string, mode core.Mode) (core.Result, error) {
	var res core.Result
	err := resilience.RunWithTimeout(ctx, opts.WorkloadTimeout, func(ctx context.Context) error {
		if err := opts.Faults.Fire(faultinject.WorkerSite(name, mode.String())); err != nil {
			return err
		}
		var err error
		if preset, ok := workloads.ConsolidationByName(name); ok {
			res, err = runConsolidationCell(ctx, opts, preset, mode)
		} else {
			res, err = runProfileCell(ctx, opts, name, mode)
		}
		if err != nil {
			return err
		}
		return res.CheckAccounting()
	})
	if err != nil {
		return core.Result{}, asWorkloadError(err, name, mode)
	}
	return res, nil
}

// runProfileCell simulates one Table 2 workload cell.
func runProfileCell(ctx context.Context, opts Options, name string, mode core.Mode) (core.Result, error) {
	p, ok := workloads.ByName(name)
	if !ok {
		return core.Result{}, fmt.Errorf("experiments: unknown workload %q", name)
	}
	cfg := opts.config(mode)
	if !opts.UncalibratedWalks {
		cfg = calibrateWalks(cfg, p)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	gen := faultinject.Wrap(p.Generator(opts.Cores, opts.Seed), opts.Faults)
	return sys.Run(ctx, gen, name)
}

// calibrateWalks returns cfg with its page walks charged at p's measured
// baseline penalty, from the Table 2 column cfg.Virtualized selects: a
// scheme run combines hardware measurement with scheme simulation the
// way the paper does (§3.3). The baseline itself, and schemes whose
// benefit lives inside the walk (l4-cache and dram-cache, for which
// core.CalibratedWalks is false), keep simulated walks.
func calibrateWalks(cfg core.Config, p workloads.Profile) core.Config {
	if cfg.Mode == core.Baseline || cfg.Mode == "" || !core.CalibratedWalks(cfg.Mode) {
		return cfg
	}
	pen := p.CyclesPerMissVirt
	if !cfg.Virtualized {
		pen = p.CyclesPerMissNative
	}
	cfg.WalkPenaltyOverride = uint64(pen)
	return cfg
}

// workloads returns the campaign's benchmark profiles (the Options subset,
// or all of Table 2).
func (r *Runner) workloads() []workloads.Profile {
	if len(r.opts.Workloads) == 0 {
		return workloads.All()
	}
	var out []workloads.Profile
	for _, n := range r.opts.Workloads {
		if p, ok := workloads.ByName(n); ok {
			out = append(out, p)
		}
	}
	return out
}

// names returns the campaign's benchmark names.
func (r *Runner) names() []string {
	ps := r.workloads()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
