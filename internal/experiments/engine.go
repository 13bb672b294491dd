package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
	"repro/internal/workloads"
)

// The design-space sweep engine: it shards a set of cells — the
// workloads × schemes × geometry grid of a sweep, or the workload ×
// scheme cells a Runner has not memoized yet — over a work-stealing
// worker pool, runs each inside the resilience envelope (per-cell
// deadline, capped-backoff retry drawing on a global budget), and
// degrades gracefully: a cell that exhausts its attempts is quarantined
// with its captured failure while the others keep going. Completed cells
// are appended to the SweepJournal, so a SIGKILL mid-shard resumes with
// exactly the missing cells, and results stream to CSV in deterministic
// grid order as cells finish.

// DefaultQuarantineAfter is the per-cell attempt cap when SweepConfig
// leaves it zero.
const DefaultQuarantineAfter = 3

// DefaultRetryBudget is the global retry pool experiments -sweep gives a
// sweep unless -retry-budget overrides it.
const DefaultRetryBudget = 64

// SweepConfig describes one sweep run.
type SweepConfig struct {
	// Base supplies the non-swept simulation options (refs, warmup,
	// virtualization, ...). Base.Workloads restricts the workload axis
	// (nil = all of Table 2), and Base.WorkloadTimeout bounds each attempt
	// of a cell (0 = none).
	Base Options
	// Spec is the geometry grid crossed with workloads × schemes.
	Spec Spec
	// Shards is the worker count; each worker owns one shard of the grid
	// and steals from the others when its own drains (0 = GOMAXPROCS).
	Shards int
	// RetryBudget is the global pool of re-attempts shared by every cell;
	// once dry, cells fail on their first error. Negative = unlimited.
	RetryBudget int
	// QuarantineAfter is the per-cell attempt cap: a cell that has failed
	// this many times is quarantined (0 = DefaultQuarantineAfter).
	QuarantineAfter int
	// Journal, when non-nil, makes the sweep crash-safe: completed cells
	// are served from it without re-running, and every newly completed
	// cell is appended to it. Failures are not journaled, so a resume
	// runs a quarantined cell again.
	Journal *SweepJournal
	// Faults is the deterministic chaos plan (nil in production); the
	// engine fires faultinject.SweepCellSite(key) once per cell attempt
	// and threads the schedule into each cell's simulation seams.
	Faults *faultinject.Schedule
	// CSV, when non-nil, receives the results as a stream of rows in
	// deterministic grid order (header first).
	CSV io.Writer
	// Collect retains every cell's Result in the report — convenient for
	// small sweeps and tables, unbounded memory for huge ones.
	Collect bool
	// Progress, when non-nil, receives one line per completed shard-
	// stealing event and quarantine — coarse, log-friendly narration.
	Progress io.Writer
}

// CellResult is one completed cell.
type CellResult struct {
	Cell        Cell
	Res         core.Result
	Attempts    int
	FromJournal bool
}

// QuarantinedCell is one failed cell in the sweep's failure manifest.
type QuarantinedCell struct {
	Index           int    `json:"index"`
	Key             string `json:"key"`
	Workload        string `json:"workload"`
	Scheme          string `json:"scheme"`
	Variant         string `json:"variant"`
	Attempts        int    `json:"attempts"`
	Error           string `json:"error"`
	Stack           string `json:"stack,omitempty"`
	BudgetExhausted bool   `json:"budget_exhausted,omitempty"`
	// Err is the final error itself, for errors.Is/As and its panic
	// stack; Error is its message with the cell's variant tagged on.
	Err error `json:"-"`
}

// SweepReport summarizes a sweep: how much of the grid completed, what
// was served from the journal, and the quarantine manifest for
// everything that did not.
type SweepReport struct {
	Total       int
	Completed   int
	FromJournal int
	Retried     int
	JournalErrs int
	// BudgetRemaining is the unused retry allowance (-1 = unlimited).
	BudgetRemaining int
	Quarantined     []QuarantinedCell
	// Results is populated only under SweepConfig.Collect, in grid order.
	Results []CellResult
}

// Abandoned returns how many cells neither completed nor quarantined —
// nonzero only for cancelled sweeps, and exactly the cells a resume will
// run.
func (r *SweepReport) Abandoned() int {
	return r.Total - r.Completed - len(r.Quarantined)
}

// manifest is the JSON document WriteManifest emits.
type manifest struct {
	Total       int               `json:"total_cells"`
	Completed   int               `json:"completed"`
	FromJournal int               `json:"from_journal"`
	Retried     int               `json:"retried"`
	Abandoned   int               `json:"abandoned"`
	Quarantined []QuarantinedCell `json:"quarantined"`
}

// WriteManifest emits the structured failure manifest as indented JSON.
func (r *SweepReport) WriteManifest(w io.Writer) error {
	m := manifest{
		Total:       r.Total,
		Completed:   r.Completed,
		FromJournal: r.FromJournal,
		Retried:     r.Retried,
		Abandoned:   r.Abandoned(),
		Quarantined: r.Quarantined,
	}
	if m.Quarantined == nil {
		m.Quarantined = []QuarantinedCell{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// csvHeader is the schema of the streamed results file.
func csvHeader() []string {
	return []string{"cell", "workload", "scheme", "variant", "pom_mb", "pom_ways",
		"cores", "seed", "tenants", "churn", "phases",
		"p_avg", "walk_elim", "l1_hit", "l2_hit", "ipc",
		"hot_elim", "warm_elim", "cold_elim"}
}

// csvRow renders one cell's result row. Formatting is fixed-precision so
// a resumed sweep reproduces an uninterrupted run byte for byte.
func csvRow(c Cell, o Options, res core.Result) []string {
	ff := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	pomMB := o.POMSizeBytes >> 20
	if pomMB == 0 {
		pomMB = 16 // the paper's default capacity
	}
	ways := o.POMWays
	if ways == 0 {
		ways = 4 // the paper's default associativity
	}
	tier := func(t int) string {
		if !res.HasTiers() {
			return ""
		}
		return ff(res.TierWalkElim(t))
	}
	return []string{
		strconv.Itoa(c.Index),
		c.Workload,
		c.Mode.String(),
		c.Variant.Label(),
		strconv.FormatUint(pomMB, 10),
		strconv.Itoa(ways),
		strconv.Itoa(o.Cores),
		strconv.FormatUint(o.Seed, 10),
		strconv.Itoa(o.Tenants),
		strconv.Itoa(o.ChurnEvery),
		strconv.Itoa(o.Phases),
		ff(res.AvgPenalty()),
		ff(res.WalkEliminationRate()),
		ff(res.L1TLB.Ratio()),
		ff(res.L2TLB.Ratio()),
		ff(res.IPC()),
		tier(0),
		tier(1),
		tier(2),
	}
}

// engine is the mutable state of one runCells call.
type engine struct {
	cfg    SweepConfig
	budget *resilience.Budget
	policy resilience.Policy
	csv    *orderedCSV

	mu      sync.Mutex
	queues  [][]Cell
	report  SweepReport
	results []CellResult
}

// RunSweep executes the sweep over cfg.Spec's grid. The returned report
// is valid even when err is non-nil: a cancelled sweep reports what
// completed before the cancellation (everything of which is journaled),
// and a degraded sweep returns a nil error with a non-empty quarantine
// manifest — quarantine is the engine working as designed, not a failure
// of the sweep.
func RunSweep(ctx context.Context, cfg SweepConfig) (*SweepReport, error) {
	names := cfg.Base.Workloads
	if len(names) == 0 {
		names = workloads.Names()
	}
	for _, n := range names {
		if _, ok := workloads.ByName(n); ok {
			continue
		}
		if _, ok := workloads.ConsolidationByName(n); ok {
			continue
		}
		return nil, fmt.Errorf("sweep: unknown workload %q", n)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	return runCells(ctx, cfg, cfg.Spec.Cells(names))
}

// runCells is the engine's cell loop and the only code in this package
// that simulates a cell. It runs cells (each Index its position in the
// slice, which orders the CSV) under cfg and ignores cfg.Spec; RunSweep
// feeds it a grid, Runner the cells it has not memoized.
func runCells(ctx context.Context, cfg SweepConfig, cells []Cell) (*SweepReport, error) {
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = DefaultQuarantineAfter
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}

	e := &engine{cfg: cfg, policy: resilience.DefaultPolicy()}
	e.policy.Seed = cfg.Base.Seed
	e.policy.MaxAttempts = cfg.QuarantineAfter
	if cfg.RetryBudget >= 0 {
		e.budget = resilience.NewBudget(cfg.RetryBudget)
	}

	e.report.Total = len(cells)
	if len(cells) == 0 {
		return &e.report, nil
	}

	if cfg.CSV != nil {
		var err error
		e.csv, err = newOrderedCSV(cfg.CSV, csvHeader())
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}

	// Shard the grid round-robin so every worker holds a slice of low
	// indices — the streaming CSV's contiguous prefix advances from the
	// first finished cells instead of waiting for one worker's block.
	e.queues = make([][]Cell, shards)
	for i, c := range cells {
		s := i % shards
		e.queues[s] = append(e.queues[s], c)
	}

	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				c, ok := e.next(id)
				if !ok {
					return
				}
				e.runCell(ctx, c)
			}
		}(w)
	}
	wg.Wait()

	e.report.BudgetRemaining = -1
	if e.budget != nil {
		e.report.BudgetRemaining = e.budget.Remaining()
	}
	// Grid order, so degraded sweeps report reproducibly regardless of
	// worker scheduling.
	sort.Slice(e.report.Quarantined, func(i, j int) bool {
		return e.report.Quarantined[i].Index < e.report.Quarantined[j].Index
	})
	if cfg.Collect {
		sort.Slice(e.results, func(i, j int) bool { return e.results[i].Cell.Index < e.results[j].Cell.Index })
		e.report.Results = e.results
	}
	if err := ctx.Err(); err != nil {
		return &e.report, fmt.Errorf("sweep interrupted: %w (completed cells are journaled; resume runs the remaining %d)", err, e.report.Abandoned())
	}
	return &e.report, nil
}

// next pops a cell from the worker's own shard, or steals from the
// fullest other shard when its own has drained. Returns false only when
// every shard is empty.
func (e *engine) next(id int) (Cell, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if q := e.queues[id]; len(q) > 0 {
		c := q[0]
		e.queues[id] = q[1:]
		return c, true
	}
	// Steal from the back of the longest queue: the cells least likely to
	// be touched by their owner soon.
	victim, best := -1, 0
	for i, q := range e.queues {
		if len(q) > best {
			victim, best = i, len(q)
		}
	}
	if victim < 0 {
		return Cell{}, false
	}
	q := e.queues[victim]
	c := q[len(q)-1]
	e.queues[victim] = q[:len(q)-1]
	return c, true
}

// logf emits one optional progress line.
func (e *engine) logf(format string, args ...any) {
	if e.cfg.Progress != nil {
		fmt.Fprintf(e.cfg.Progress, format+"\n", args...)
	}
}

// runCell drives one cell through journal lookup, the retry envelope,
// and result emission.
func (e *engine) runCell(ctx context.Context, c Cell) {
	key := c.Key()
	cellOpts := c.Options(e.cfg.Base)
	cellOpts.Faults = e.cfg.Faults

	if res, ok := e.cfg.Journal.Done(key); ok {
		e.finish(CellResult{Cell: c, Res: res, FromJournal: true}, cellOpts)
		return
	}

	attempts := 0
	var res core.Result
	err := resilience.RetryBudget(ctx, e.policy, e.budget, func(ctx context.Context) error {
		attempts++
		if err := e.cfg.Faults.Fire(faultinject.SweepCellSite(key)); err != nil {
			return err
		}
		var serr error
		res, serr = SimulateCell(ctx, cellOpts, c.Workload, c.Mode)
		return serr
	})
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled, not failed: leave the cell un-journaled so a
			// resume runs it.
			return
		}
		e.quarantine(c, attempts, err)
		return
	}
	if jerr := e.cfg.Journal.PutDone(key, res); jerr != nil {
		e.journalErr(key, jerr)
	}
	e.finish(CellResult{Cell: c, Res: res, Attempts: attempts}, cellOpts)
}

// tagVariant stamps the cell's geometry onto the error message via the
// campaign layer's WorkloadError, so quarantine manifests name exact grid
// coordinates.
func tagVariant(err error, c Cell) string {
	var we *WorkloadError
	if errors.As(err, &we) {
		if we.Variant == "" {
			tagged := *we
			tagged.Variant = c.Variant.Label()
			return tagged.Error()
		}
		return err.Error()
	}
	// Seam panics and retry-budget errors arrive without workload
	// identity; stamp the full cell coordinates on.
	full := &WorkloadError{Workload: c.Workload, Mode: c.Mode, Variant: c.Variant.Label(), Err: err}
	return full.Error()
}

// finish records one completed cell and streams its row.
func (e *engine) finish(r CellResult, cellOpts Options) {
	if e.csv != nil {
		if err := e.csv.Put(r.Cell.Index, csvRow(r.Cell, cellOpts, r.Res)); err != nil {
			e.journalErr(r.Cell.Key(), fmt.Errorf("csv: %w", err))
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.report.Completed++
	if r.FromJournal {
		e.report.FromJournal++
	}
	if r.Attempts > 1 {
		e.report.Retried++
	}
	if e.cfg.Collect {
		e.results = append(e.results, r)
	}
}

// quarantine records one failed cell in the manifest and advances the
// CSV past its row slot.
func (e *engine) quarantine(c Cell, attempts int, err error) {
	q := QuarantinedCell{
		Index:           c.Index,
		Key:             c.Key(),
		Workload:        c.Workload,
		Scheme:          c.Mode.String(),
		Variant:         c.Variant.Label(),
		Attempts:        attempts,
		Error:           tagVariant(err, c),
		BudgetExhausted: errors.Is(err, resilience.ErrBudgetExhausted),
		Err:             err,
	}
	var pe *resilience.PanicError
	if errors.As(err, &pe) {
		q.Stack = string(pe.Stack)
	}
	if e.csv != nil {
		if err := e.csv.Skip(c.Index); err != nil {
			e.journalErr(q.Key, fmt.Errorf("csv: %w", err))
		}
	}
	e.mu.Lock()
	e.report.Quarantined = append(e.report.Quarantined, q)
	e.mu.Unlock()
	e.logf("sweep: quarantined %s after %d attempt(s): %s", q.Key, attempts, q.Error)
}

// journalErr counts a journaling/streaming failure without killing the
// sweep — the cell's result is still in memory and in the report; only
// its durability degraded.
func (e *engine) journalErr(key string, err error) {
	e.mu.Lock()
	e.report.JournalErrs++
	e.mu.Unlock()
	e.logf("sweep: journaling %s failed: %v", key, err)
}
