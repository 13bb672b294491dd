package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/workloads"
)

// TestSweepSoakKillResumeByteIdentical is the acceptance soak: a
// 1,000+ cell sweep with randomly scheduled (but seeded, deterministic)
// panics at the sweep-cell seam is interrupted mid-sweep with a hard
// cancellation, its journal is torn the way a SIGKILL mid-append tears
// it, and the resumed sweep must produce a results CSV byte-identical to
// an uninterrupted run of the same seed — with exactly the injected-panic
// cells quarantined and zero completed cells lost or re-simulated
// incorrectly.
func TestSweepSoakKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	before := runtime.NumGoroutine()

	base := QuickOptions()
	base.Cores, base.WarmupRefs, base.MaxRefs = 1, 400, 250
	spec, err := ParseSpec("schemes=pom-tlb,shared-l2:pom-mb=1,2:pom-ways=2,4:seeds=1,2,3,4,5,6,7,8,9")
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells(allWorkloads(t))
	if len(cells) < 1000 {
		t.Fatalf("soak grid has %d cells, want 1000+", len(cells))
	}

	const panicRate, chaosSeed = 0.03, 1234
	_, plan := SeedChaos(cells, panicRate, chaosSeed)
	if len(plan.Panicked) == 0 {
		t.Fatal("chaos plan dooms no cell")
	}
	// withChaos returns base with the chaos plan armed on a fresh
	// schedule: fault plans are per-process, so each run re-arms it.
	withChaos := func() Options {
		o := base
		o.Faults, _ = SeedChaos(cells, panicRate, chaosSeed)
		return o
	}

	// Reference: one uninterrupted run.
	var csvA bytes.Buffer
	repA, err := RunSweep(context.Background(), SweepConfig{Base: withChaos(), Spec: spec, Shards: 8, CSV: &csvA})
	if err != nil {
		t.Fatal(err)
	}
	if got := quarantineKeys(repA); !equalStrings(got, sortedCopy(plan.Panicked)) {
		t.Fatalf("uninterrupted run quarantined %d cells, plan panicked %d", len(got), len(plan.Panicked))
	}
	if repA.Completed+len(repA.Quarantined) != repA.Total {
		t.Fatalf("report does not cover the grid: %+v", repA)
	}

	// Interrupted run: journal on, hard cancellation once a mid-grid
	// fault-free cell is reached.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	fp := SweepFingerprint(base, spec.Canonical())
	j1, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := withChaos()
	doomed := map[string]bool{}
	for _, k := range plan.Panicked {
		doomed[k] = true
	}
	cancelKey := ""
	for _, c := range cells[len(cells)/2:] {
		if !doomed[c.Key()] {
			cancelKey = c.Key()
			break
		}
	}
	if cancelKey == "" {
		t.Fatal("no fault-free cell after the midpoint")
	}
	interrupted.Faults.callOn(cancelKey, cancel, 1)

	repB, err := RunSweep(ctx, SweepConfig{Base: interrupted, Spec: spec, Shards: 8, Journal: j1})
	if err == nil {
		t.Fatal("interrupted run must return an error")
	}
	j1.Close()
	if repB.Abandoned() == 0 {
		t.Fatal("interruption left nothing to resume — cancel fired too late")
	}
	t.Logf("interrupted after %d/%d cells (%d quarantined, %d abandoned)",
		repB.Completed, repB.Total, len(repB.Quarantined), repB.Abandoned())

	// Tear the journal tail the way a SIGKILL mid-append would.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume: the chaos plan re-armed, same journal. Must complete the
	// grid and reproduce the reference CSV byte for byte.
	j2, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatalf("resume failed to open torn journal: %v", err)
	}
	defer j2.Close()
	if j2.TruncatedRecords() != 1 {
		t.Errorf("torn tail not detected: TruncatedRecords = %d", j2.TruncatedRecords())
	}
	var csvC bytes.Buffer
	repC, err := RunSweep(context.Background(), SweepConfig{Base: withChaos(), Spec: spec, Shards: 8, Journal: j2, CSV: &csvC})
	if err != nil {
		t.Fatal(err)
	}
	if repC.Completed != repA.Completed {
		t.Errorf("resume completed %d cells, reference %d", repC.Completed, repA.Completed)
	}
	if repC.FromJournal == 0 {
		t.Error("resume re-simulated every cell — journal not consulted")
	}
	if got := quarantineKeys(repC); !equalStrings(got, sortedCopy(plan.Panicked)) {
		t.Errorf("resumed quarantine manifest (%d) != injected panic set (%d)", len(got), len(plan.Panicked))
	}
	if !bytes.Equal(csvA.Bytes(), csvC.Bytes()) {
		t.Error("resumed CSV is not byte-identical to the uninterrupted run")
		diffFirstLine(t, csvA.String(), csvC.String())
	}

	// No goroutine leaks: the worker pool and every cell's timeout
	// context must be gone once Run returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

func allWorkloads(t *testing.T) []string {
	t.Helper()
	names := workloads.Names()
	if len(names) < 10 {
		t.Fatalf("workload table has only %d entries", len(names))
	}
	return names
}

func quarantineKeys(r *SweepReport) []string {
	keys := make([]string, 0, len(r.Quarantined))
	for _, q := range r.Quarantined {
		keys = append(keys, q.Key)
	}
	sort.Strings(keys)
	return keys
}

func sortedCopy(s []string) []string {
	out := append([]string{}, s...)
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func diffFirstLine(t *testing.T, a, b string) {
	t.Helper()
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			t.Logf("first difference at line %d:\n  ref:    %s\n  resume: %s", i+1, al[i], bl[i])
			return
		}
	}
	t.Logf("line counts differ: %d vs %d", len(al), len(bl))
}
