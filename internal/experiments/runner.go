// Package experiments regenerates every table and figure in the paper's
// evaluation (Section 3–4): it runs the simulator over the Table 2
// workload suite under each translation scheme, feeds the simulated
// penalties into the linear performance model, and formats the same rows
// and series the paper reports.
//
// Campaigns are resilient: every (workload, scheme) cell is an
// independently failable job. Worker panics are recovered into structured
// *WorkloadError values, cells honor per-workload timeouts and campaign
// cancellation, completed cells are appended to an optional SweepJournal,
// and the figure layer returns partial results plus a *CampaignError
// instead of crashing — one degenerate workload degrades a multi-hour
// sweep instead of destroying it.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
	"repro/internal/workloads"
)

// Options controls an evaluation campaign.
type Options struct {
	// Cores is the simulated core count (the paper's headline runs use 8).
	Cores int
	// VMs is the virtual machine count (1 except for the §5.2 study).
	VMs int
	// WarmupRefs/MaxRefs size each simulation. Warmup must be large
	// enough to touch the workload footprints (Table 2 footprints reach
	// 384 MB ≈ 100k pages).
	WarmupRefs int
	MaxRefs    int
	// Seed feeds the trace generators.
	Seed uint64
	// POMSizeBytes overrides the POM-TLB capacity (0 = paper's 16 MB).
	POMSizeBytes uint64
	// POMWays overrides the associativity (0 = paper's 4).
	POMWays int
	// DisableBypass forces the cache-probe path (bypass ablation).
	DisableBypass bool
	// Virtualized is true for the paper's main configuration.
	Virtualized bool
	// Workloads restricts the campaign to a subset of Table 2 benchmark
	// names (nil = all 15).
	Workloads []string
	// CachePriority enables the §5.1 TLB-aware replacement policy.
	CachePriority cache.Priority
	// NeighborPrefetch enables the §6 burst-neighbour prefetch extension.
	NeighborPrefetch bool
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

	// WorkloadTimeout bounds each (workload, scheme) simulation, and each
	// attempt of a sweep cell; a cell that exceeds it fails with
	// context.DeadlineExceeded while the rest of the campaign continues
	// (0 = no per-job deadline).
	WorkloadTimeout time.Duration
	// Faults is the deterministic fault-injection plan (nil in
	// production). The runner fires faultinject.WorkerSite(workload,
	// scheme) once per simulation job, wires faultinject.DRAMSite into
	// both DRAM substrates, and wraps trace generators for
	// faultinject.TraceSite record corruption.
	Faults *faultinject.Schedule
}

// DefaultOptions returns the paper's 8-core virtualized campaign at a
// laptop-friendly trace length.
func DefaultOptions() Options {
	return Options{
		Cores:       8,
		VMs:         1,
		WarmupRefs:  500_000,
		MaxRefs:     500_000,
		Seed:        1,
		Virtualized: true,
	}
}

// QuickOptions returns a much shorter campaign for tests and smoke runs.
func QuickOptions() Options {
	return Options{
		Cores:       2,
		VMs:         1,
		WarmupRefs:  120_000,
		MaxRefs:     60_000,
		Seed:        1,
		Virtualized: true,
	}
}

// config materializes a core.Config for one scheme under these options.
func (o Options) config(mode core.Mode) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.Cores = o.Cores
	cfg.VMs = o.VMs
	if cfg.VMs <= 0 {
		cfg.VMs = 1
	}
	cfg.Virtualized = o.Virtualized
	cfg.WarmupRefs = o.WarmupRefs
	cfg.MaxRefs = o.MaxRefs
	cfg.Seed = o.Seed
	if o.POMSizeBytes != 0 {
		cfg.POM.SizeBytes = o.POMSizeBytes
	}
	if o.POMWays != 0 {
		cfg.POM.Ways = o.POMWays
	}
	cfg.DisableBypassPredictor = o.DisableBypass
	cfg.CachePriority = o.CachePriority
	cfg.NeighborPrefetch = o.NeighborPrefetch
	if o.Faults != nil {
		hook := o.Faults.Hook(faultinject.DRAMSite)
		cfg.DDR.FaultHook = hook
		cfg.POM.DRAM.FaultHook = hook
	}
	return cfg
}

// Runner memoizes simulation results across figures so each
// (workload, scheme) pair runs exactly once per campaign, even under
// concurrent figure extraction. At most GOMAXPROCS cells simulate at once.
type Runner struct {
	opts    Options
	journal *SweepJournal
	// variant labels the failures of a derived campaign (an ablation
	// point, the native or uncalibrated re-run); "" for the main one.
	variant string

	mu    sync.Mutex
	cells map[runKey]*cell
	sem   chan struct{}
}

type runKey struct {
	workload string
	mode     core.Mode
}

type cell struct {
	once sync.Once
	res  core.Result
	err  error
}

// NewRunner creates a runner for the options. A non-nil journal, opened
// under Fingerprint(opts), serves the cells it already holds without
// re-simulating and records each newly completed one — the -checkpoint
// and -resume path of cmd/experiments.
func NewRunner(opts Options, journal *SweepJournal) *Runner {
	return &Runner{
		opts:    opts,
		journal: journal,
		cells:   make(map[runKey]*cell),
		sem:     make(chan struct{}, runtime.GOMAXPROCS(0)),
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

// Result simulates (or returns the memoized result of) one workload under
// one scheme, with campaign cancellation and the full resilience path:
// journaled cells are served without re-simulating; fresh cells run
// under the per-workload timeout with panic recovery, and failures come
// back as structured *WorkloadError values.
func (r *Runner) Result(ctx context.Context, name string, mode core.Mode) (core.Result, error) {
	journalKey := name + "|" + mode.String()
	if res, ok := r.journal.Done(journalKey); ok {
		return res, nil
	}
	key := runKey{name, mode}
	r.mu.Lock()
	c, ok := r.cells[key]
	if !ok {
		c = &cell{}
		r.cells[key] = c
	}
	r.mu.Unlock()
	c.once.Do(func() {
		c.res, c.err = r.simulate(ctx, name, mode)
		if c.err == nil {
			c.err = r.journal.PutDone(journalKey, c.res)
		}
		if c.err != nil {
			c.err = r.fail(c.err, name, mode)
		}
	})
	return c.res, c.err
}

// fail attributes a cell's error to the cell and to this runner's variant.
func (r *Runner) fail(err error, name string, mode core.Mode) *WorkloadError {
	we := asWorkloadError(err, name, mode)
	if we.Variant == "" {
		we.Variant = r.variant
	}
	return we
}

// simulate runs one (workload, scheme) job with semaphore admission
// (abortable) in front of the shared single-cell path.
func (r *Runner) simulate(ctx context.Context, name string, mode core.Mode) (core.Result, error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return core.Result{}, &WorkloadError{Workload: name, Mode: mode, Err: ctx.Err()}
	}
	defer func() { <-r.sem }()
	return SimulateCell(ctx, r.opts, name, mode)
}

// SimulateCell runs exactly one (workload, scheme) simulation under the
// resilience envelope: the job runs under opts.WorkloadTimeout, panics
// anywhere in the simulation stack — substrate constructors, trace
// generation, the core loop — are recovered into the returned
// *WorkloadError, and a result that breaks the Result accounting
// identities fails the cell. Unlike Runner.Result it performs no
// memoization, journaling, or concurrency limiting; the design-space
// sweep engine calls it directly from its own worker pool with per-cell
// geometry in opts.
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
		if err := res.CheckAccounting(); err != nil {
			return resilience.Permanent(err)
		}
		return nil
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
		return core.Result{}, resilience.Permanent(fmt.Errorf("experiments: unknown workload %q", name))
	}
	cfg := opts.config(mode)
	if mode != core.Baseline && !opts.UncalibratedWalks && core.CalibratedWalks(mode) {
		// Charge scheme-run walks at the measured baseline cost (§3.3).
		// Schemes whose benefit lives inside the walk (l4-cache,
		// dram-cache) opt out via CalibratedWalks and simulate walks.
		pen := p.CyclesPerMissVirt
		if !opts.Virtualized {
			pen = p.CyclesPerMissNative
		}
		cfg.WalkPenaltyOverride = uint64(pen)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, resilience.Permanent(err)
	}
	gen := faultinject.Wrap(p.Generator(opts.Cores, opts.Seed), opts.Faults)
	return sys.Run(ctx, gen, name)
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

// Prefetch runs the given (workload × mode) grid concurrently under ctx
// so later figure extraction is instant, waiting for every cell. Unlike a
// fail-fast errgroup, it always drains the whole grid — one failed cell
// must not abandon the others' in-flight work — and aggregates every
// failure into a *CampaignError (nil when clean).
func (r *Runner) Prefetch(ctx context.Context, names []string, modes []core.Mode) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fails []*WorkloadError
	for _, n := range names {
		for _, m := range modes {
			wg.Add(1)
			go func(n string, m core.Mode) {
				defer wg.Done()
				if _, err := r.Result(ctx, n, m); err != nil {
					mu.Lock()
					fails = append(fails, asWorkloadError(err, n, m))
					mu.Unlock()
				}
			}(n, m)
		}
	}
	wg.Wait()
	return campaignError(fails)
}
