package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
)

// TestCampaignSurvivesWorkerPanic is the headline acceptance test: a
// worker that panics mid-campaign must cost exactly its own cell — every
// other workload's row survives, and the error names the failed
// (workload, scheme) pair with the recovered panic attached.
func TestCampaignSurvivesWorkerPanic(t *testing.T) {
	opts := quick()
	opts.Faults = faultinject.NewSchedule()
	opts.Faults.PanicOn(faultinject.WorkerSite("gups", core.POMTLB.String()), 1)
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
	if len(pe.Stack) == 0 {
		t.Error("the recovered panic carries no stack")
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
	opts.Faults = faultinject.NewSchedule()
	opts.Faults.PanicOn(faultinject.WorkerSite("gups", core.POMTLB.String()), 1)
	if _, err := Figure9(context.Background(), NewRunner(opts, j)); err == nil {
		t.Fatal("first campaign should be degraded")
	}
	if n := j.Len(); n != 2 {
		t.Fatalf("journal holds %d cells after the degraded run, want 2", n)
	}
	j.Close()

	// Resumed campaign: a fresh fault-free schedule counts which workers
	// actually simulate. Journaled cells are served before the worker
	// site fires, so only the missing cell may hit it.
	j2, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	opts2 := quick()
	opts2.Faults = faultinject.NewSchedule() // empty: pure hit counting
	rows, err := Figure9(context.Background(), NewRunner(opts2, j2))
	if err != nil {
		t.Fatalf("resumed campaign failed: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("resumed campaign produced %d rows, want 3", len(rows))
	}
	for _, name := range []string{"streamcluster", "mcf"} {
		site := faultinject.WorkerSite(name, core.POMTLB.String())
		if n := opts2.Faults.Hits(site); n != 0 {
			t.Errorf("%s re-simulated %d time(s) despite being journaled", name, n)
		}
	}
	if n := opts2.Faults.Hits(faultinject.WorkerSite("gups", core.POMTLB.String())); n != 1 {
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
	if _, err := r.Result(ctx, "streamcluster", core.POMTLB); err != nil {
		t.Fatal(err)
	}
	cancel()

	err = r.Prefetch(ctx, []string{"streamcluster", "gups", "mcf"}, []core.Mode{core.POMTLB})
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
	if _, err := r.Result(context.Background(), "streamcluster", core.POMTLB); err != nil {
		t.Errorf("completed cell lost after cancellation: %v", err)
	}
	// The journal holds exactly the finished cell.
	if _, ok := j.Done("streamcluster|pom-tlb"); !ok || j.Len() != 1 {
		t.Errorf("journal holds %d cell(s), want exactly streamcluster|pom-tlb", j.Len())
	}
	// Prefetch waits for its workers, so the goroutine count must settle
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
	opts.Faults = faultinject.NewSchedule()
	opts.Faults.PanicOn(faultinject.WorkerSite("gups", core.POMTLB.String()), 1, 2)
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

// TestDRAMFaultRecovered injects a failure at the DRAM access seam — deep
// inside the memory substrate, far below the campaign runner — and checks
// it surfaces as a structured, errors.Is-able workload failure.
func TestDRAMFaultRecovered(t *testing.T) {
	sentinel := errors.New("injected DRAM failure")
	opts := quick()
	opts.Workloads = []string{"gups"}
	opts.Faults = faultinject.NewSchedule()
	opts.Faults.ErrorOn(faultinject.DRAMSite, sentinel, 1)
	r := NewRunner(opts, nil)

	_, err := r.Result(context.Background(), "gups", core.POMTLB)
	if err == nil {
		t.Fatal("injected DRAM fault did not fail the cell")
	}
	var we *WorkloadError
	if !errors.As(err, &we) {
		t.Fatalf("error is %T, want *WorkloadError", err)
	}
	// The hook has no error path, so the fault travels as a panic; the
	// recovery chain must still expose the original sentinel.
	if !errors.Is(err, sentinel) {
		t.Errorf("sentinel lost through the recovery chain: %v", err)
	}
}

// TestTraceCorruptionSeamFires proves the trace-record seam is wired into
// real campaigns: a corruption fault neither crashes nor errors the run,
// and the hit counter confirms the wrapper saw every generated record.
func TestTraceCorruptionSeamFires(t *testing.T) {
	opts := quick()
	opts.Workloads = []string{"gups"}
	opts.Faults = faultinject.NewSchedule()
	opts.Faults.CorruptOn(faultinject.TraceSite, 5)
	r := NewRunner(opts, nil)

	if _, err := r.Result(context.Background(), "gups", core.POMTLB); err != nil {
		t.Fatalf("corrupted record must not fail the run: %v", err)
	}
	want := uint64(opts.WarmupRefs + opts.MaxRefs)
	if n := opts.Faults.Hits(faultinject.TraceSite); n < want {
		t.Errorf("trace seam fired %d times, want at least %d", n, want)
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

	_, err := r.Result(context.Background(), "mcf", core.POMTLB)
	if err == nil {
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
