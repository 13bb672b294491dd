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
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
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
	// Faults is the deterministic fault plan (nil in production):
	// SimulateCell fires each cell's key once per run.
	Faults *FaultSchedule
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

// Runner memoizes simulation results across figures so each
// (workload, scheme) pair runs at most once per campaign. It is a memo
// over the sweep engine: Grid passes the cells it has no outcome for to
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
	results  map[string]*core.Result
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
		results:  map[string]*core.Result{},
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

// Grid returns the outcome of every cell of names × modes, indexed
// [workload][mode]. In one engine call it runs every cell the runner has
// no outcome for yet: journaled cells are served without re-simulating,
// and fresh ones run under the per-workload timeout with panic recovery.
// A failed cell is nil in the grid, and the *CampaignError names every
// failed cell (nil when all completed). A cell a cancelled run never
// reached fails with ctx's error and stays unrun.
func (r *Runner) Grid(ctx context.Context, names []string, modes ...core.Mode) ([][]*core.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Each distinct cell once, in grid order; those with no outcome run.
	var cells, todo []Cell
	seen := map[string]bool{}
	for _, n := range names {
		for _, m := range modes {
			c := Cell{Workload: n, Mode: m, Index: len(todo)}
			key := c.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			cells = append(cells, c)
			if _, failed := r.failures[key]; r.results[key] == nil && !failed {
				todo = append(todo, c)
			}
		}
	}
	if len(todo) > 0 {
		// The error only reports a cancellation, which fails each
		// unreached cell below.
		rep, _ := runCells(ctx, SweepConfig{Base: r.opts, Journal: r.journal, Collect: true}, todo)
		for _, cr := range rep.Results {
			r.results[cr.Cell.Key()] = &cr.Res
		}
		for _, q := range rep.Quarantined {
			we := asWorkloadError(q.Err, q.Workload, core.Mode(q.Scheme))
			if we.Variant == "" {
				we.Variant = r.variant
			}
			r.failures[q.Key] = we
		}
	}
	var fails []*WorkloadError
	for _, c := range cells {
		key := c.Key()
		if r.results[key] != nil {
			continue
		}
		we, ok := r.failures[key]
		if !ok {
			we = &WorkloadError{Workload: c.Workload, Mode: c.Mode, Variant: r.variant, Err: ctx.Err()}
		}
		fails = append(fails, we)
	}
	grid := make([][]*core.Result, len(names))
	for i, n := range names {
		grid[i] = make([]*core.Result, len(modes))
		for j, m := range modes {
			grid[i][j] = r.results[Cell{Workload: n, Mode: m}.Key()]
		}
	}
	return grid, campaignError(fails)
}

// completeRows turns each workload of names whose cells in grid all
// completed into a row, in names order; a workload with a failed cell
// has none. row gets the workload's Table 2 profile and its results, one
// per mode of the grid.
func completeRows[T any](names []string, grid [][]*core.Result, row func(workloads.Profile, []*core.Result) T) []T {
	var out []T
	for i, res := range grid {
		if !slices.Contains(res, nil) {
			p, _ := workloads.ByName(names[i])
			out = append(out, row(p, res))
		}
	}
	return out
}

// SimulateCell runs exactly one cell, c under base with its variant
// applied, inside the resilience envelope: the job runs under
// WorkloadTimeout, fires the cell's fault plan first, panics anywhere in
// the simulation stack — substrate constructors, trace generation, the
// core loop, an injected fault — are recovered into the returned
// *WorkloadError, and a result that breaks the Result accounting
// identities fails the cell. It performs no memoization, journaling or
// concurrency limiting: the engine's cell loop (runCells) adds those
// around it.
func SimulateCell(ctx context.Context, base Options, c Cell) (core.Result, error) {
	opts := c.Options(base)
	var res core.Result
	err := resilience.RunWithTimeout(ctx, opts.WorkloadTimeout, func(ctx context.Context) error {
		if err := opts.Faults.fire(c.Key()); err != nil {
			return err
		}
		var err error
		if preset, ok := workloads.ConsolidationByName(c.Workload); ok {
			res, err = runConsolidationCell(ctx, opts, preset, c.Mode)
		} else {
			res, err = runProfileCell(ctx, opts, c.Workload, c.Mode)
		}
		if err != nil {
			return err
		}
		return res.CheckAccounting()
	})
	if err != nil {
		return core.Result{}, asWorkloadError(err, c.Workload, c.Mode)
	}
	return res, nil
}

// runProfileCell simulates one Table 2 workload cell.
func runProfileCell(ctx context.Context, opts Options, name string, mode core.Mode) (core.Result, error) {
	p, ok := workloads.ByName(name)
	if !ok {
		return core.Result{}, fmt.Errorf("experiments: unknown workload %q", name)
	}
	cfg := opts.Config
	cfg.Mode = mode
	if !opts.UncalibratedWalks {
		cfg = calibrateWalks(cfg, p)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	return sys.Run(ctx, p.Generator(opts.Cores, opts.Seed), name)
}

// calibrateWalks returns cfg with its page walks charged at p's measured
// baseline penalty, from the Table 2 column cfg.Virtualized selects: a
// scheme run combines hardware measurement with scheme simulation the
// way the paper does (§3.3). The baseline itself, and schemes whose
// benefit lives inside the walk (l4-cache and dram-cache), keep simulated
// walks: core.CalibratedWalks is false for all three.
func calibrateWalks(cfg core.Config, p workloads.Profile) core.Config {
	if !core.CalibratedWalks(cfg.Mode) {
		return cfg
	}
	pen := p.CyclesPerMissVirt
	if !cfg.Virtualized {
		pen = p.CyclesPerMissNative
	}
	cfg.WalkPenaltyOverride = uint64(pen)
	return cfg
}

// names returns the campaign's Table 2 benchmark names: the Options
// subset, or all 15.
func (r *Runner) names() []string {
	if len(r.opts.Workloads) == 0 {
		return workloads.Names()
	}
	var out []string
	for _, n := range r.opts.Workloads {
		if _, ok := workloads.ByName(n); ok {
			out = append(out, n)
		}
	}
	return out
}
