package experiments

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

// sweepTiny returns base options small enough to run hundreds of cells in a
// test.
func sweepTiny() Options {
	o := QuickOptions()
	o.Cores, o.WarmupRefs, o.MaxRefs = 1, 1500, 800
	o.Workloads = []string{"gups", "mcf"}
	return o
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("schemes=pom-tlb,tsb:pom-mb=4,8:pom-ways=2,4:seeds=1,2")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Schemes) != 2 || spec.Schemes[1] != core.TSB {
		t.Errorf("schemes = %v", spec.Schemes)
	}
	if len(spec.PomMB) != 2 || spec.PomMB[0] != 4 {
		t.Errorf("pom-mb = %v", spec.PomMB)
	}
	if got := spec.Canonical(); got != "schemes=pom-tlb,tsb:pom-mb=4,8:pom-ways=2,4:seeds=1,2" {
		t.Errorf("Canonical = %q", got)
	}
	if n := len(spec.Cells([]string{"gups", "mcf"})); n != 2*2*2*2*2 {
		t.Errorf("%d cells", n)
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		"",
		"pom-mb",             // no values
		"pom-mb=",            // empty value
		"pom-mb=0",           // non-positive
		"pom-mb=-2",          // negative
		"pom-mb=x",           // not a number
		"pom-ways=0",         // non-positive
		"cores=0",            // non-positive
		"seeds=0",            // zero seed is "inherit", ambiguous
		"bogus=1",            // unknown axis
		"schemes=warp-drive", // unknown scheme
		"pom-mb=1:pom-mb=2",  // duplicate axis
		"pom-mb=1,,2",        // empty list slot
		// 2^44 + 16 MB and 2^44 MB wrap to 16 MiB and to zero bytes
		// under a bare shift.
		"pom-mb=17592186044432",
		"pom-mb=17592186044416",
		"cores=512", // past the 8-bit trace-thread limit
		"tenants=2", // below the three tenant tiers
		// A repeated parsed value would run one cell twice.
		"schemes=pom-tlb:pom-mb=4,04",
		"seeds=1,1",
		"schemes=tsb,pom-tlb,tsb",
		"churn=-1,5000,-1",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSpecValidateCoresLimit(t *testing.T) {
	s := Spec{Cores: []int{512}}
	if err := s.Validate(); err == nil {
		t.Error("cores=512 must be rejected (trace threads are 8-bit)")
	}
}

func TestCellsEnumerationDeterministic(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb,tsb:pom-mb=4,8")
	cells := spec.Cells([]string{"gups", "mcf"})
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	if cells[0].Key() != "gups|pom-tlb|pom-mb=4" {
		t.Errorf("cell 0 = %s", cells[0].Key())
	}
	if cells[7].Key() != "mcf|tsb|pom-mb=8" {
		t.Errorf("cell 7 = %s", cells[7].Key())
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
	}
	// The zero variant keeps the campaign key "workload|scheme".
	base := Cell{Workload: "gups", Mode: core.POMTLB}
	if base.Key() != "gups|pom-tlb" {
		t.Errorf("base key = %s", base.Key())
	}
}

func TestCellOptionsAppliesGeometry(t *testing.T) {
	c := Cell{Variant: Variant{PomMB: 4, PomWays: 2, Cores: 3, Seed: 9}}
	o := c.Options(sweepTiny())
	if o.POM.SizeBytes != 4<<20 || o.POM.Ways != 2 || o.Cores != 3 || o.Seed != 9 {
		t.Errorf("options = %+v", o)
	}
	// Inherit when zero.
	o = Cell{}.Options(sweepTiny())
	if o.POM.SizeBytes != 16<<20 || o.POM.Ways != 4 || o.Cores != 1 || o.Seed != 1 {
		t.Errorf("inherit options = %+v", o)
	}
}

func TestSweepCleanRun(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb:pom-mb=1,2")
	var csv bytes.Buffer
	rep, err := RunSweep(context.Background(), SweepConfig{
		Base: sweepTiny(), Spec: spec, Shards: 4, CSV: &csv, Collect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 4 || rep.Completed != 4 || len(rep.Quarantined) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("csv has %d lines, want header+4", len(lines))
	}
	// Rows must be in grid order despite concurrent workers.
	for i, line := range lines[1:] {
		if !strings.HasPrefix(line, strings.Join([]string{intoa(i)}, "")+",") {
			t.Errorf("row %d out of order: %s", i, line)
		}
	}
	if len(rep.Results) != 4 || rep.Results[2].Cell.Index != 2 {
		t.Errorf("collected results out of order: %+v", rep.Results)
	}
}

func intoa(i int) string { return string(rune('0' + i)) }

// TestSweepQuarantinesPanickingCell pins that every cell gets one
// attempt: a cell that panics and a cell that fails once are both
// quarantined, the panic with its recovered stack, while the other cells
// complete and stream their rows in grid order.
func TestSweepQuarantinesPanickingCell(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb:pom-mb=1,2")
	cells := spec.Cells([]string{"gups", "mcf"})
	base := sweepTiny()
	base.Faults = newFaultSchedule()
	base.Faults.panicOn("mcf|pom-tlb|pom-mb=1", 1)
	failOnce := errors.New("injected failure")
	base.Faults.errorOn("gups|pom-tlb|pom-mb=2", failOnce, 1)

	var csv bytes.Buffer
	rep, err := RunSweep(context.Background(), SweepConfig{Base: base, Spec: spec, Shards: 2, CSV: &csv})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(cells)-2 {
		t.Errorf("completed = %d, want %d", rep.Completed, len(cells)-2)
	}
	if len(rep.Quarantined) != 2 {
		t.Fatalf("quarantined = %+v", rep.Quarantined)
	}
	failed, panicked := rep.Quarantined[0], rep.Quarantined[1]
	if failed.Key != "gups|pom-tlb|pom-mb=2" || !errors.Is(failed.Err, failOnce) || failed.Stack != "" {
		t.Errorf("failed cell's quarantine = %+v", failed)
	}
	if panicked.Key != "mcf|pom-tlb|pom-mb=1" || panicked.Stack == "" {
		t.Errorf("panic quarantine must carry the recovered stack: %+v", panicked)
	}
	if !strings.Contains(panicked.Error, "[pom-mb=1]") {
		t.Errorf("quarantine error not tagged with the variant: %s", panicked.Error)
	}
	for _, c := range cells {
		if n := base.Faults.hits(c.Key()); n != 1 {
			t.Errorf("%s attempted %d time(s), want 1", c.Key(), n)
		}
	}
	// The quarantined cells leave no CSV row; all others stream in order.
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(cells)-2 {
		t.Errorf("csv has %d lines", len(lines))
	}
	for _, line := range lines[1:] {
		if strings.Contains(line, "mcf,pom-tlb,pom-mb=1,") || strings.Contains(line, "gups,pom-tlb,pom-mb=2,") {
			t.Errorf("quarantined cell produced a row: %s", line)
		}
	}
}

// TestSweepQuarantinesUnbuildableConfig pins that a cell whose geometry
// the simulator cannot build (a 24 MB L4 cache has 24576 sets, not a power
// of two) is quarantined after its one attempt with the configuration
// error and no panic stack, for Table 2 and consolidation workloads
// alike, while the buildable cells complete.
func TestSweepQuarantinesUnbuildableConfig(t *testing.T) {
	spec, err := ParseSpec("schemes=l4-cache:pom-mb=16,24")
	if err != nil {
		t.Fatal(err)
	}
	base := consolBase()
	base.Workloads = []string{"gups", "consol-smoke"}
	base.Faults = newFaultSchedule() // empty: counts attempts
	rep, err := RunSweep(context.Background(), SweepConfig{Base: base, Spec: spec, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || len(rep.Quarantined) != 2 {
		t.Fatalf("completed %d, quarantined %+v; want the two pom-mb=16 cells done, the two pom-mb=24 cells quarantined",
			rep.Completed, rep.Quarantined)
	}
	for _, q := range rep.Quarantined {
		if !strings.HasSuffix(q.Key, "|l4-cache|pom-mb=24") || q.Stack != "" ||
			!strings.Contains(q.Error, "not a power of two") {
			t.Errorf("quarantine = %+v, want the config error", q)
		}
		if n := base.Faults.hits(q.Key); n != 1 {
			t.Errorf("%s attempted %d time(s), want 1", q.Key, n)
		}
	}
}

func TestSweepResumeServesJournal(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb:pom-mb=1,2")
	base := sweepTiny()
	fp := SweepFingerprint(base, spec.Canonical())
	path := filepath.Join(t.TempDir(), "sweep.journal")
	const doomed = "gups|pom-tlb|pom-mb=1"
	panicking := func() *FaultSchedule {
		faults := newFaultSchedule()
		faults.panicOn(doomed, 1)
		return faults
	}

	// First run: one cell panics and is quarantined.
	j1, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	run1 := base
	run1.Faults = panicking()
	var csv1 bytes.Buffer
	rep1, err := RunSweep(context.Background(), SweepConfig{
		Base: run1, Spec: spec, Shards: 2, Journal: j1, CSV: &csv1,
	})
	if err != nil {
		t.Fatal(err)
	}
	j1.Close()
	if rep1.Completed != 3 || len(rep1.Quarantined) != 1 {
		t.Fatalf("run1 = %+v", rep1)
	}

	// Second run, same journal, same fault plan re-armed: the three
	// results are served from the journal, and only the quarantined cell
	// runs again — to be quarantined again.
	j2, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	faults := panicking()
	run2 := base
	run2.Faults = faults
	var csv2 bytes.Buffer
	rep2, err := RunSweep(context.Background(), SweepConfig{
		Base: run2, Spec: spec, Shards: 2, Journal: j2, CSV: &csv2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FromJournal != 3 || rep2.Completed != 3 {
		t.Errorf("run2 = %+v", rep2)
	}
	if len(rep2.Quarantined) != 1 || rep2.Quarantined[0].Key != doomed {
		t.Errorf("run2 quarantine = %+v", rep2.Quarantined)
	}
	for _, c := range spec.Cells(base.Workloads) {
		want := uint64(0)
		if c.Key() == doomed {
			want = 1
		}
		if n := faults.hits(c.Key()); n != want {
			t.Errorf("%s attempted %d time(s) on resume, want %d", c.Key(), n, want)
		}
	}
	if csv1.String() != csv2.String() {
		t.Error("resumed CSV differs from the original run")
	}
}

// TestSweepResumeRunsQuarantinedCell pins the one recovery path: a cell
// that fails once is quarantined by the run that saw the failure, and a
// second run on the same journal runs it again, completes the grid, and
// writes the CSV of a clean run.
func TestSweepResumeRunsQuarantinedCell(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb:pom-mb=1,2")
	base := sweepTiny()
	var clean bytes.Buffer
	if _, err := RunSweep(context.Background(), SweepConfig{Base: base, Spec: spec, Shards: 2, CSV: &clean}); err != nil {
		t.Fatal(err)
	}

	const flaky = "mcf|pom-tlb|pom-mb=2"
	site := flaky
	failing := base
	failing.Faults = newFaultSchedule()
	failing.Faults.errorOn(site, errors.New("injected failure"), 1)
	fp := SweepFingerprint(base, spec.Canonical())
	path := filepath.Join(t.TempDir(), "sweep.journal")

	j1, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := RunSweep(context.Background(), SweepConfig{Base: failing, Spec: spec, Shards: 2, Journal: j1})
	j1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Completed != 3 || len(rep1.Quarantined) != 1 || rep1.Quarantined[0].Key != flaky {
		t.Fatalf("first run = %+v, want %s quarantined and the rest completed", rep1, flaky)
	}
	if n := failing.Faults.hits(site); n != 1 {
		t.Fatalf("%s attempted %d time(s) in the first run, want 1", flaky, n)
	}

	// The schedule is not re-armed: its one fault has fired, so the
	// second run's attempt at the quarantined cell succeeds.
	j2, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var resumed bytes.Buffer
	rep2, err := RunSweep(context.Background(), SweepConfig{Base: failing, Spec: spec, Shards: 2, Journal: j2, CSV: &resumed})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Completed != 4 || rep2.FromJournal != 3 || len(rep2.Quarantined) != 0 {
		t.Errorf("resume = %+v, want 3 cells from the journal and the quarantined one run", rep2)
	}
	if resumed.String() != clean.String() {
		t.Error("resumed CSV differs from a clean run")
		diffFirstLine(t, clean.String(), resumed.String())
	}
}

func TestSweepCancellationLeavesCellsForResume(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb:pom-mb=1,2,4:seeds=1,2,3")
	base := sweepTiny()
	fp := SweepFingerprint(base, spec.Canonical())
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelling := base
	cancelling.Faults = newFaultSchedule()
	// Cancel the sweep the first time any worker reaches this cell.
	cancelling.Faults.callOn("gups|pom-tlb|pom-mb=2|seed=2", cancel, 1)

	rep, err := RunSweep(ctx, SweepConfig{Base: cancelling, Spec: spec, Shards: 1, Journal: j})
	if err == nil {
		t.Fatal("cancelled sweep must return an error")
	}
	if !strings.Contains(err.Error(), "resume") {
		t.Errorf("unhelpful interruption error: %v", err)
	}
	if rep.Abandoned() == 0 {
		t.Error("cancelled sweep reports no abandoned cells")
	}
	if got := j.Len(); got != rep.Completed {
		t.Errorf("journal holds %d cells, report says %d completed", got, rep.Completed)
	}
	j.Close()

	// Resume completes exactly the missing cells.
	j2, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rep2, err := RunSweep(context.Background(), SweepConfig{Base: base, Spec: spec, Shards: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Completed != rep2.Total || rep2.FromJournal != rep.Completed {
		t.Errorf("resume = %+v (first run completed %d)", rep2, rep.Completed)
	}
}

func TestSweepUnknownWorkloadRejected(t *testing.T) {
	base := sweepTiny()
	base.Workloads = []string{"not-a-benchmark"}
	if _, err := RunSweep(context.Background(), SweepConfig{Base: base}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSweepCellTimeout(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb:pom-mb=1")
	base := sweepTiny()
	base.Workloads = []string{"gups"}
	base.MaxRefs = 2_000_000
	base.WarmupRefs = 2_000_000
	base.WorkloadTimeout = time.Millisecond
	rep, err := RunSweep(context.Background(), SweepConfig{Base: base, Spec: spec, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("timed-out cell not quarantined: %+v", rep)
	}
	if !strings.Contains(rep.Quarantined[0].Error, "deadline") {
		t.Errorf("quarantine error = %s", rep.Quarantined[0].Error)
	}
}

func TestSeedChaosDeterministic(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb:pom-mb=1,2,4,8:seeds=1,2,3,4")
	cells := spec.Cells([]string{"gups", "mcf", "astar"})
	sa, a := SeedChaos(cells, 0.1, 42)
	_, b := SeedChaos(cells, 0.1, 42)
	if strings.Join(a.Panicked, ";") != strings.Join(b.Panicked, ";") {
		t.Error("SeedChaos is not deterministic")
	}
	if len(a.Panicked) == 0 || len(a.Panicked) == len(cells) {
		t.Errorf("chaos plan dooms %d of %d cells at rate 0.1", len(a.Panicked), len(cells))
	}
	_, c := SeedChaos(cells, 0.1, 43)
	if strings.Join(a.Panicked, ";") == strings.Join(c.Panicked, ";") {
		t.Error("different seed produced the identical panic set")
	}
	// The returned schedule is armed with exactly the plan's panics.
	doomed := map[string]bool{}
	for _, k := range a.Panicked {
		doomed[k] = true
	}
	for _, cell := range cells {
		err := resilience.Safe(func() error { return sa.fire(cell.Key()) })
		var pe *resilience.PanicError
		if panicked := errors.As(err, &pe); panicked != doomed[cell.Key()] {
			t.Errorf("%s: first run err = %v, doomed = %v", cell.Key(), err, doomed[cell.Key()])
		}
	}
}
