package experiments

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience/faultinject"
)

// sweepTiny returns base options small enough to run hundreds of cells in a
// test.
func sweepTiny() Options {
	return Options{
		Cores:       1,
		VMs:         1,
		WarmupRefs:  1500,
		MaxRefs:     800,
		Seed:        1,
		Virtualized: true,
		Workloads:   []string{"gups", "mcf"},
	}
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
	if o.POMSizeBytes != 4<<20 || o.POMWays != 2 || o.Cores != 3 || o.Seed != 9 {
		t.Errorf("options = %+v", o)
	}
	// Inherit when zero.
	o = Cell{}.Options(sweepTiny())
	if o.POMSizeBytes != 0 || o.Cores != 1 || o.Seed != 1 {
		t.Errorf("inherit options = %+v", o)
	}
}

func TestSweepCleanRun(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb:pom-mb=1,2")
	var csv bytes.Buffer
	rep, err := RunSweep(context.Background(), SweepConfig{
		Base: sweepTiny(), Spec: spec, Shards: 4, RetryBudget: 8, CSV: &csv, Collect: true,
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

func TestSweepQuarantinesPanickingCell(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb:pom-mb=1,2")
	cells := spec.Cells([]string{"gups", "mcf"})
	faults := faultinject.NewSchedule()
	// Panic every attempt of one cell; error once (transient) at another.
	faults.PanicOn(faultinject.SweepCellSite("mcf|pom-tlb|pom-mb=1"), 1, 2, 3)
	faults.ErrorOn(faultinject.SweepCellSite("gups|pom-tlb|pom-mb=2"), ErrInjected, 1)

	var csv bytes.Buffer
	rep, err := RunSweep(context.Background(), SweepConfig{
		Base: sweepTiny(), Spec: spec, Shards: 2, RetryBudget: 8, Faults: faults, CSV: &csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(cells)-1 {
		t.Errorf("completed = %d, want %d", rep.Completed, len(cells)-1)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined = %+v", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Key != "mcf|pom-tlb|pom-mb=1" || q.Attempts != 1 {
		t.Errorf("quarantine = %+v", q)
	}
	if q.Stack == "" {
		t.Error("panic quarantine must carry the recovered stack")
	}
	if !strings.Contains(q.Error, "[pom-mb=1]") {
		t.Errorf("quarantine error not tagged with the variant: %s", q.Error)
	}
	if rep.Retried != 1 {
		t.Errorf("retried = %d, want 1 (the flaky cell)", rep.Retried)
	}
	// The quarantined cell leaves no CSV row; all others stream in order.
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(cells)-1 {
		t.Errorf("csv has %d lines", len(lines))
	}
	for _, line := range lines[1:] {
		if strings.Contains(line, "mcf,pom-tlb,pom-mb=1,") {
			t.Errorf("quarantined cell produced a row: %s", line)
		}
	}
}

// TestSweepQuarantinesUnbuildableConfig pins that a cell whose geometry
// the simulator cannot build (a 24 MB L4 cache has 24576 sets, not a power
// of two) fails on its first attempt with the configuration error, spends
// no retry and carries no panic stack, for Table 2 and consolidation
// workloads alike, while the buildable cells complete.
func TestSweepQuarantinesUnbuildableConfig(t *testing.T) {
	spec, err := ParseSpec("schemes=l4-cache:pom-mb=16,24")
	if err != nil {
		t.Fatal(err)
	}
	base := consolBase()
	base.Workloads = []string{"gups", "consol-smoke"}
	rep, err := RunSweep(context.Background(), SweepConfig{Base: base, Spec: spec, Shards: 2, RetryBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || len(rep.Quarantined) != 2 {
		t.Fatalf("completed %d, quarantined %+v; want the two pom-mb=16 cells done, the two pom-mb=24 cells quarantined",
			rep.Completed, rep.Quarantined)
	}
	for _, q := range rep.Quarantined {
		if !strings.HasSuffix(q.Key, "|l4-cache|pom-mb=24") || q.Attempts != 1 || q.Stack != "" ||
			!strings.Contains(q.Error, "not a power of two") {
			t.Errorf("quarantine = %+v, want one attempt ending in the config error", q)
		}
	}
	if rep.Retried != 0 || rep.BudgetRemaining != 8 {
		t.Errorf("retried %d, budget remaining %d; a config error must not be retried", rep.Retried, rep.BudgetRemaining)
	}
}

func TestSweepRetryBudgetExhaustion(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb:pom-mb=1,2,4")
	faults := faultinject.NewSchedule()
	// Every cell fails every attempt with a transient error: with a
	// budget of 2, exactly 2 retries happen across the whole sweep and
	// every cell is quarantined, most with BudgetExhausted set.
	for _, c := range spec.Cells([]string{"gups"}) {
		site := faultinject.SweepCellSite(c.Key())
		faults.ErrorOn(site, ErrInjected, 1, 2, 3, 4, 5)
	}
	rep, err := RunSweep(context.Background(), SweepConfig{
		Base: sweepTiny(), Spec: spec, Shards: 1, RetryBudget: 2, QuarantineAfter: 3, Faults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 3 {
		t.Fatalf("quarantined = %d, want 3", len(rep.Quarantined))
	}
	totalAttempts, exhausted := 0, 0
	for _, q := range rep.Quarantined {
		totalAttempts += q.Attempts
		if q.BudgetExhausted {
			exhausted++
		}
	}
	// 3 first attempts + 2 budgeted retries.
	if totalAttempts != 5 {
		t.Errorf("total attempts = %d, want 5", totalAttempts)
	}
	if exhausted == 0 {
		t.Error("no quarantine records the exhausted budget")
	}
	if rep.BudgetRemaining != 0 {
		t.Errorf("budget remaining = %d", rep.BudgetRemaining)
	}
}

func TestSweepResumeServesJournal(t *testing.T) {
	spec, _ := ParseSpec("schemes=pom-tlb:pom-mb=1,2")
	base := sweepTiny()
	fp := SweepFingerprint(base, spec.Canonical())
	path := filepath.Join(t.TempDir(), "sweep.journal")
	const doomed = "gups|pom-tlb|pom-mb=1"
	panicking := func() *faultinject.Schedule {
		faults := faultinject.NewSchedule()
		faults.PanicOn(faultinject.SweepCellSite(doomed), 1, 2, 3)
		return faults
	}

	// First run: one cell panics forever and is quarantined.
	j1, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	var csv1 bytes.Buffer
	rep1, err := RunSweep(context.Background(), SweepConfig{
		Base: base, Spec: spec, Shards: 2, RetryBudget: 4, Journal: j1, Faults: panicking(), CSV: &csv1,
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
	var csv2 bytes.Buffer
	rep2, err := RunSweep(context.Background(), SweepConfig{
		Base: base, Spec: spec, Shards: 2, RetryBudget: 4, Journal: j2, Faults: faults, CSV: &csv2,
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
		if n := faults.Hits(faultinject.SweepCellSite(c.Key())); n != want {
			t.Errorf("%s attempted %d time(s) on resume, want %d", c.Key(), n, want)
		}
	}
	if csv1.String() != csv2.String() {
		t.Error("resumed CSV differs from the original run")
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
	faults := faultinject.NewSchedule()
	// Cancel the sweep the first time any worker reaches this cell.
	faults.CallOn(faultinject.SweepCellSite("gups|pom-tlb|pom-mb=2|seed=2"), cancel, 1)

	rep, err := RunSweep(ctx, SweepConfig{
		Base: base, Spec: spec, Shards: 1, RetryBudget: 4, Journal: j, Faults: faults,
	})
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
	rep2, err := RunSweep(context.Background(), SweepConfig{
		Base: base, Spec: spec, Shards: 2, RetryBudget: 4, Journal: j2,
	})
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
	rep, err := RunSweep(context.Background(), SweepConfig{
		Base: base, Spec: spec, Shards: 1, RetryBudget: 0, QuarantineAfter: 1,
	})
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
	a := SeedChaos(faultinject.NewSchedule(), cells, 0.1, 0.2, 42)
	b := SeedChaos(faultinject.NewSchedule(), cells, 0.1, 0.2, 42)
	if strings.Join(a.Panicked, ";") != strings.Join(b.Panicked, ";") ||
		strings.Join(a.Flaky, ";") != strings.Join(b.Flaky, ";") {
		t.Error("SeedChaos is not deterministic")
	}
	if len(a.Panicked) == 0 || len(a.Flaky) == 0 {
		t.Errorf("chaos plan empty: %d panicked, %d flaky (rates too low for 48 cells?)", len(a.Panicked), len(a.Flaky))
	}
	c := SeedChaos(faultinject.NewSchedule(), cells, 0.1, 0.2, 43)
	if strings.Join(a.Panicked, ";") == strings.Join(c.Panicked, ";") && len(a.Panicked) > 0 {
		t.Error("different seed produced the identical panic set")
	}
}
