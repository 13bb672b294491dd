package experiments

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// consolBase is a short consolidation campaign: small traces, but real
// multi-VM scenarios with storms and phase changes in every cell.
func consolBase() Options {
	o := QuickOptions()
	o.WarmupRefs, o.MaxRefs = 3_000, 3_000
	return o
}

// TestSweepConsolidationAxes drives the tenants=/churn=/phases= axes end
// to end through the engine over the consol-smoke preset and checks the
// new CSV columns carry the per-cell override and the per-tier walk
// elimination.
func TestSweepConsolidationAxes(t *testing.T) {
	spec, err := ParseSpec("schemes=pom-tlb,tsb:tenants=16,24:churn=1500,-1:phases=2")
	if err != nil {
		t.Fatal(err)
	}
	base := consolBase()
	base.Workloads = []string{"consol-smoke"}
	cells := spec.Cells(base.Workloads)
	if len(cells) != 8 {
		t.Fatalf("grid has %d cells, want 8", len(cells))
	}
	var csv bytes.Buffer
	rep, err := RunSweep(context.Background(), SweepConfig{Base: base, Spec: spec, Shards: 4, CSV: &csv})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(cells) || len(rep.Quarantined) != 0 {
		t.Fatalf("sweep degraded: %+v", rep)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(cells)+1 {
		t.Fatalf("CSV has %d lines, want header + %d rows", len(lines), len(cells))
	}
	header := strings.Split(lines[0], ",")
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("CSV header missing %q: %v", name, header)
		return -1
	}
	tenantsC, churnC, hotC, coldC := col("tenants"), col("churn"), col("hot_elim"), col("cold_elim")
	for i, line := range lines[1:] {
		f := strings.Split(line, ",")
		v := cells[i].Variant
		if f[tenantsC] != "16" && f[tenantsC] != "24" {
			t.Errorf("row %d: tenants column %q, want the swept override", i, f[tenantsC])
		}
		if (v.Churn == -1) != (f[churnC] == "-1") {
			t.Errorf("row %d: churn column %q does not match variant %+v", i, f[churnC], v)
		}
		if f[hotC] == "" || f[coldC] == "" {
			t.Errorf("row %d: consolidation cell missing tier columns: %q", i, line)
		}
	}
	// Non-consolidation cells leave the tier columns empty.
	plain := consolBase()
	plain.Workloads = []string{"gups"}
	var csv2 bytes.Buffer
	if _, err := RunSweep(context.Background(), SweepConfig{
		Base: plain, Spec: Spec{}, Shards: 1, CSV: &csv2,
	}); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(csv2.String()), "\n")
	if got := strings.Split(rows[len(rows)-1], ","); got[hotC] != "" {
		t.Errorf("gups row carries a tier column: %q", got[hotC])
	}
}

// TestSweepConsolidationKillResume mirrors the soak acceptance on the
// consolidation path: a 100+ guest Zipf sweep with storm cells is
// cancelled mid-grid, the journal tail is left intact (crash-tearing is
// covered by the soak), and the resumed run must reproduce the
// uninterrupted CSV byte for byte — scenario builds, event schedules and
// tier accounting are fully deterministic.
func TestSweepConsolidationKillResume(t *testing.T) {
	base := consolBase()
	base.Workloads = []string{"consol-zipf", "consol-smoke"}
	spec, err := ParseSpec("schemes=pom-tlb,tsb:seeds=1,2:churn=1000,-1")
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells(base.Workloads)
	if len(cells) != 16 {
		t.Fatalf("grid has %d cells, want 16", len(cells))
	}

	var csvA bytes.Buffer
	repA, err := RunSweep(context.Background(), SweepConfig{Base: base, Spec: spec, Shards: 4, CSV: &csvA})
	if err != nil {
		t.Fatal(err)
	}
	if repA.Completed != len(cells) {
		t.Fatalf("reference run degraded: %+v", repA)
	}

	// Interrupted run: hard-cancel when a mid-grid cell starts.
	path := filepath.Join(t.TempDir(), "consol.journal")
	fp := SweepFingerprint(base, spec.Canonical())
	j1, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := base
	interrupted.Faults = newFaultSchedule()
	interrupted.Faults.callOn(cells[len(cells)/2].Key(), cancel, 1)
	repB, err := RunSweep(ctx, SweepConfig{Base: interrupted, Spec: spec, Shards: 2, Journal: j1})
	j1.Close()
	if err == nil {
		t.Fatal("interrupted run must return an error")
	}
	if repB.Abandoned() == 0 {
		t.Fatal("interruption left nothing to resume — cancel fired too late")
	}

	// Resume against the same journal.
	j2, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var csvC bytes.Buffer
	repC, err := RunSweep(context.Background(), SweepConfig{Base: base, Spec: spec, Shards: 4, Journal: j2, CSV: &csvC})
	if err != nil {
		t.Fatal(err)
	}
	if repC.Completed != len(cells) {
		t.Fatalf("resumed run degraded: %+v", repC)
	}
	if repC.FromJournal == 0 {
		t.Error("resume re-simulated every cell — journal not consulted")
	}
	if !bytes.Equal(csvA.Bytes(), csvC.Bytes()) {
		t.Error("resumed consolidation CSV is not byte-identical to the uninterrupted run")
		diffFirstLine(t, csvA.String(), csvC.String())
	}
}
