package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

// TestCampaignSurvivesWorkerPanic is the headline acceptance test: a
// cell that panics mid-campaign must cost exactly its own cell — every
// other workload's row survives, and the error names the failed
// (workload, scheme) pair with the panic SimulateCell's own envelope
// recovered attached.
func TestCampaignSurvivesWorkerPanic(t *testing.T) {
	opts := quick()
	opts.Faults = newFaultSchedule()
	opts.Faults.panicOn("gups|pom-tlb", 1)
	r := NewRunner(opts, nil)

	rows, err := Figure9(context.Background(), r)
	if err == nil {
		t.Fatal("panicked worker produced no campaign error")
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 surviving rows, got %d: %+v", len(rows), rows)
	}
	for _, row := range rows {
		if row.Name == "gups" {
			t.Error("the panicked cell must not produce a row")
		}
	}

	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CampaignError", err)
	}
	if len(ce.Failures) != 1 {
		t.Fatalf("want 1 failure, got %d: %v", len(ce.Failures), ce)
	}
	f := ce.Failures[0]
	if f.Workload != "gups" || f.Mode != core.POMTLB {
		t.Errorf("failure names %s/%s, want gups/pom-tlb", f.Workload, f.Mode)
	}
	var pe *resilience.PanicError
	if !errors.As(f.Err, &pe) {
		t.Fatalf("failure cause is %T, want *resilience.PanicError", f.Err)
	}
	if !strings.Contains(string(pe.Stack), "experiments.SimulateCell") {
		t.Errorf("the panic was not recovered inside SimulateCell:\n%s", pe.Stack)
	}
}

// TestResumeCompletesOnlyMissingCell proves the journal/resume loop: a
// campaign degraded by one panicked worker journals every completed cell,
// and a resumed campaign re-simulates only the cell that is missing.
func TestResumeCompletesOnlyMissingCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	opts := quick()
	fp := Fingerprint(opts)

	// First campaign: gups/pom-tlb panics, the other two cells complete.
	j, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = newFaultSchedule()
	opts.Faults.panicOn("gups|pom-tlb", 1)
	if _, err := Figure9(context.Background(), NewRunner(opts, j)); err == nil {
		t.Fatal("first campaign should be degraded")
	}
	if n := j.Len(); n != 2 {
		t.Fatalf("journal holds %d cells after the degraded run, want 2", n)
	}
	j.Close()

	// Resumed campaign: a fresh fault-free schedule counts which cells
	// actually simulate. Journaled cells are served without calling
	// SimulateCell, so only the missing cell may fire its key.
	j2, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	opts2 := quick()
	opts2.Faults = newFaultSchedule() // empty: pure hit counting
	rows, err := Figure9(context.Background(), NewRunner(opts2, j2))
	if err != nil {
		t.Fatalf("resumed campaign failed: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("resumed campaign produced %d rows, want 3", len(rows))
	}
	for _, name := range []string{"streamcluster", "mcf"} {
		if n := opts2.Faults.hits(name + "|pom-tlb"); n != 0 {
			t.Errorf("%s re-simulated %d time(s) despite being journaled", name, n)
		}
	}
	if n := opts2.Faults.hits("gups|pom-tlb"); n != 1 {
		t.Errorf("missing cell gups simulated %d time(s), want exactly 1", n)
	}
	if n := j2.Len(); n != 3 {
		t.Errorf("journal holds %d cells after resume, want 3", n)
	}
}

// TestMidCampaignCancellation cancels after the first workload completes:
// the finished cell survives (result and journal), the remaining cells
// fail with context.Canceled, and no worker goroutines leak.
func TestMidCampaignCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	opts := quick()
	j, err := OpenSweepJournal(path, Fingerprint(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	r := NewRunner(opts, j)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := r.Grid(ctx, []string{"streamcluster"}, core.POMTLB); err != nil {
		t.Fatal(err)
	}
	cancel()

	grid, err := r.Grid(ctx, []string{"streamcluster", "gups", "mcf"}, core.POMTLB)
	if grid[0][0] == nil || grid[1][0] != nil || grid[2][0] != nil {
		t.Errorf("grid after cancellation = %v, want only streamcluster", grid)
	}
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("cancelled campaign returned %T, want *CampaignError", err)
	}
	if len(ce.Failures) != 2 {
		t.Fatalf("want 2 cancelled cells, got %d: %v", len(ce.Failures), ce)
	}
	for _, f := range ce.Failures {
		if f.Workload == "streamcluster" {
			t.Error("the completed cell must not be reported as failed")
		}
		if !errors.Is(f, context.Canceled) {
			t.Errorf("%s/%s failed with %v, want context.Canceled", f.Workload, f.Mode, f.Err)
		}
	}

	// The completed cell is still served (memoized) after cancellation.
	if _, err := r.Grid(context.Background(), []string{"streamcluster"}, core.POMTLB); err != nil {
		t.Errorf("completed cell lost after cancellation: %v", err)
	}
	// The journal holds exactly the finished cell.
	if _, ok := j.Done("streamcluster|pom-tlb"); !ok || j.Len() != 1 {
		t.Errorf("journal holds %d cell(s), want exactly streamcluster|pom-tlb", j.Len())
	}
	// Grid waits for its workers, so the goroutine count must settle
	// back to the baseline (small grace for runtime bookkeeping).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}
}

// TestAblationFailuresKeepTheirPoints panics the same (workload, scheme)
// pair at two capacity points. Each point is its own cell, so the
// campaign error must list both failures, told apart by their variants.
func TestAblationFailuresKeepTheirPoints(t *testing.T) {
	opts := quick()
	opts.Faults = newFaultSchedule()
	opts.Faults.panicOn("gups|pom-tlb", 1, 2)
	_, err := AblationCapacity(context.Background(), opts)
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CampaignError", err)
	}
	if len(ce.Failures) != 2 {
		t.Fatalf("want 2 failures, got %d: %v", len(ce.Failures), ce)
	}
	if a, b := ce.Failures[0].Variant, ce.Failures[1].Variant; a == "" || b == "" || a == b {
		t.Errorf("failures not told apart by variant: %q, %q", a, b)
	}
	stacks := map[string]bool{}
	for _, f := range ce.Failures {
		var pe *resilience.PanicError
		stacks[f.cell()] = errors.As(f.Err, &pe) && len(pe.Stack) > 0
	}
	for _, want := range []string{"gups/pom-tlb[8MB]", "gups/pom-tlb[16MB]"} {
		if !stacks[want] {
			t.Errorf("no recovered stack for %s:\n%s", want, ce.Error())
		}
	}
}

// TestFigure3ReportsEveryFailedCell fails gups's baseline cell in both of
// Figure 3's campaigns: the virtualized one runs first, the native one
// second. gups loses its row, and the error names both cells, the
// native one under its variant.
func TestFigure3ReportsEveryFailedCell(t *testing.T) {
	opts := quick()
	opts.Workloads = []string{"gups", "mcf"}
	opts.Faults = newFaultSchedule()
	opts.Faults.panicOn("gups|baseline", 1, 2)
	rows, err := Figure3(context.Background(), NewRunner(opts, nil))
	if len(rows) != 1 || rows[0].Name != "mcf" {
		t.Errorf("rows = %+v, want mcf's alone", rows)
	}
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CampaignError", err)
	}
	var cells []string
	for _, f := range ce.Failures {
		cells = append(cells, f.cell())
	}
	if want := []string{"gups/baseline", "gups/baseline[native]"}; !slices.Equal(cells, want) {
		t.Errorf("failed cells = %q, want %q", cells, want)
	}
}

// TestWorkloadTimeout enforces the per-job deadline: a cell that exceeds
// Options.WorkloadTimeout fails with context.DeadlineExceeded while
// remaining addressable as a structured workload error.
func TestWorkloadTimeout(t *testing.T) {
	opts := quick()
	opts.Workloads = []string{"mcf"}
	opts.WorkloadTimeout = time.Nanosecond
	r := NewRunner(opts, nil)

	grid, err := r.Grid(context.Background(), []string{"mcf"}, core.POMTLB)
	if err == nil || grid[0][0] != nil {
		t.Fatal("1ns deadline did not fail the cell")
	}
	var we *WorkloadError
	if !errors.As(err, &we) {
		t.Fatalf("error is %T, want *WorkloadError", err)
	}
	if we.Workload != "mcf" || we.Mode != core.POMTLB {
		t.Errorf("failure names %s/%s, want mcf/pom-tlb", we.Workload, we.Mode)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want context.DeadlineExceeded in the chain, got %v", err)
	}
}
