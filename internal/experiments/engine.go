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
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
	"repro/internal/workloads"
)

// The design-space sweep engine: it runs a set of cells — the
// workloads × schemes × geometry grid of a sweep, or the workload ×
// scheme cells a Runner has not memoized yet — on a worker pool that
// takes cells in index order from one shared cursor. Each cell gets one
// attempt inside the resilience envelope (per-cell deadline, panic
// recovery), and the engine degrades gracefully: a cell that fails is
// quarantined with its captured failure while the others keep going,
// and a resume runs it again. Cells are deterministic, so a second
// attempt in the same run could only fail the same way. Completed cells
// are appended to the SweepJournal, so a SIGKILL mid-sweep resumes with
// exactly the missing cells, and results stream to CSV in deterministic
// grid order as cells finish.

// SweepConfig describes one sweep run.
type SweepConfig struct {
	// Base supplies the non-swept simulation options (refs, warmup,
	// virtualization, ...). Base.Workloads restricts the workload axis
	// (nil = all of Table 2), Base.WorkloadTimeout bounds each cell
	// (0 = none), and Base.Faults is the deterministic chaos plan (nil in
	// production): the engine fires faultinject.SweepCellSite(key) once
	// per simulated cell, and the cell's simulation fires the deeper
	// seams.
	Base Options
	// Spec is the geometry grid crossed with workloads × schemes.
	Spec Spec
	// Shards is the worker count (0 = GOMAXPROCS); workers take cells in
	// grid order from one shared cursor.
	Shards int
	// Journal, when non-nil, makes the sweep crash-safe: completed cells
	// are served from it without re-running, and every newly completed
	// cell is appended to it. Failures are not journaled, so a resume
	// runs a quarantined cell again.
	Journal *SweepJournal
	// CSV, when non-nil, receives the results as a stream of rows in
	// deterministic grid order (header first).
	CSV io.Writer
	// Collect retains every cell's Result in the report — convenient for
	// small sweeps and tables, unbounded memory for huge ones.
	Collect bool
	// Progress, when non-nil, receives one line per quarantined cell and
	// per journaling failure — coarse, log-friendly narration.
	Progress io.Writer
}

// CellResult is one completed cell.
type CellResult struct {
	Cell        Cell
	Res         core.Result
	FromJournal bool
}

// QuarantinedCell is one failed cell in the sweep's failure manifest.
type QuarantinedCell struct {
	Index    int    `json:"index"`
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Variant  string `json:"variant"`
	Error    string `json:"error"`
	Stack    string `json:"stack,omitempty"`
	// Err is the error itself, for errors.Is/As and its panic stack;
	// Error is its message with the cell's variant tagged on.
	Err error `json:"-"`
}

// SweepReport summarizes a sweep: how much of the grid completed, what
// was served from the journal, and the quarantine manifest for
// everything that did not.
type SweepReport struct {
	Total       int
	Completed   int
	FromJournal int
	JournalErrs int
	Quarantined []QuarantinedCell
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
	Abandoned   int               `json:"abandoned"`
	Quarantined []QuarantinedCell `json:"quarantined"`
}

// WriteManifest emits the structured failure manifest as indented JSON.
func (r *SweepReport) WriteManifest(w io.Writer) error {
	m := manifest{
		Total:       r.Total,
		Completed:   r.Completed,
		FromJournal: r.FromJournal,
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
		strconv.FormatUint(o.POM.SizeBytes>>20, 10),
		strconv.Itoa(o.POM.Ways),
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
	cfg   SweepConfig
	cells []Cell
	csv   *orderedCSV
	// cursor is the position in cells of the next cell to hand out.
	cursor atomic.Int64

	mu      sync.Mutex
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
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}

	e := &engine{cfg: cfg, cells: cells}
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

	// Cells start in index order, so the streaming CSV's contiguous
	// prefix advances as soon as the lowest running cell finishes.
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				c, ok := e.next()
				if !ok {
					return
				}
				e.runCell(ctx, c)
			}
		}()
	}
	wg.Wait()

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

// next hands out the lowest cell no worker has taken yet, and false once
// every cell is taken.
func (e *engine) next() (Cell, bool) {
	i := e.cursor.Add(1) - 1
	if i >= int64(len(e.cells)) {
		return Cell{}, false
	}
	return e.cells[i], true
}

// logf emits one optional progress line.
func (e *engine) logf(format string, args ...any) {
	if e.cfg.Progress != nil {
		fmt.Fprintf(e.cfg.Progress, format+"\n", args...)
	}
}

// runCell drives one cell through journal lookup, its one attempt, and
// result emission.
func (e *engine) runCell(ctx context.Context, c Cell) {
	key := c.Key()
	cellOpts := c.Options(e.cfg.Base)

	if res, ok := e.cfg.Journal.Done(key); ok {
		e.finish(CellResult{Cell: c, Res: res, FromJournal: true}, cellOpts)
		return
	}

	var res core.Result
	err := resilience.Safe(func() error {
		if err := cellOpts.Faults.Fire(faultinject.SweepCellSite(key)); err != nil {
			return err
		}
		var err error
		res, err = SimulateCell(ctx, cellOpts, c.Workload, c.Mode)
		return err
	})
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled, not failed: leave the cell un-journaled so a
			// resume runs it.
			return
		}
		e.quarantine(c, err)
		return
	}
	if jerr := e.cfg.Journal.PutDone(key, res); jerr != nil {
		e.journalErr(key, jerr)
	}
	e.finish(CellResult{Cell: c, Res: res}, cellOpts)
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
	// Sweep-cell seam faults arrive without workload identity; stamp the
	// full cell coordinates on.
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
	if e.cfg.Collect {
		e.results = append(e.results, r)
	}
}

// quarantine records one failed cell in the manifest and advances the
// CSV past its row slot.
func (e *engine) quarantine(c Cell, err error) {
	q := QuarantinedCell{
		Index:    c.Index,
		Key:      c.Key(),
		Workload: c.Workload,
		Scheme:   c.Mode.String(),
		Variant:  c.Variant.Label(),
		Error:    tagVariant(err, c),
		Err:      err,
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
	e.logf("sweep: quarantined %s: %s", q.Key, q.Error)
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
