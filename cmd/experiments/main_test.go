package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func quickArgs(extra ...string) []string {
	return append([]string{"-quick", "-workloads", "gups,streamcluster"}, extra...)
}

func TestTables(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-table", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "L2 Unified TLB") {
		t.Error("table 1 output wrong")
	}
	sb.Reset()
	if err := run(context.Background(), []string{"-table", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mcf") {
		t.Error("table 2 output wrong")
	}
}

// TestFigures pins that -fig N prints exactly figure N's section of the
// -all report: its heading, the paper's numbers and the table. The
// figures resume from the -all run's journal, so only Figure 3's native
// cells, which are never journaled, run again.
func TestFigures(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	var all strings.Builder
	if err := run(context.Background(), quickArgs("-all", "-checkpoint", journal), &all); err != nil {
		t.Fatalf("-all: %v\n%s", err, all.String())
	}
	for _, fig := range []string{"2", "3", "4", "8", "9", "10", "11", "12"} {
		var sb strings.Builder
		if err := run(context.Background(), quickArgs("-fig", fig, "-checkpoint", journal, "-resume"), &sb); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		notes, got, _ := strings.Cut(sb.String(), "\n")
		if !strings.HasPrefix(notes, "resuming: ") {
			t.Fatalf("fig %s did not resume from the journal:\n%s", fig, sb.String())
		}
		_, want, _ := strings.Cut(all.String(), "## Figure "+fig+" ")
		want, _, _ = strings.Cut(want, "\n## ")
		if want = "## Figure " + fig + " " + want + "\n"; got != want {
			t.Errorf("-fig %s printed:\n%s\nwant the -all section:\n%s", fig, got, want)
		}
	}
}

func TestNoArgsErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), nil, &sb); err == nil {
		t.Error("no action should error")
	}
}

func TestSweepFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]string{
		// Exactly one action runs; a second one would be dropped.
		"consolidation+csv": {"-quick", "-consolidation", "consol-smoke", "-csv", filepath.Join(dir, "c")},
		"table+fig":         {"-quick", "-table", "2", "-fig", "4"},
		"fig+csv":           {"-quick", "-workloads", "gups", "-fig", "4", "-csv", filepath.Join(dir, "f")},
		"all+report":        {"-quick", "-workloads", "gups", "-all", "-report", filepath.Join(dir, "r.md")},
		"ablations w/o all": {"-quick", "-fig", "4", "-ablations"},

		"shards":              {"-sweep", "schemes=pom-tlb", "-shards", "0"},
		"negative shards":     {"-sweep", "schemes=pom-tlb", "-shards", "-4"},
		"negative panic rate": {"-sweep", "schemes=pom-tlb", "-fault-panic-rate", "-0.1"},
		"panic rate above 1":  {"-sweep", "schemes=pom-tlb", "-fault-panic-rate", "1.5"},
		"sweep+fig":           {"-sweep", "schemes=pom-tlb", "-fig", "8"},
		"faults w/o sweep":    {"-fault-panic-rate", "0.5"},
		"csv w/o sweep":       {"-sweep-csv", "x.csv"},
		"bad spec":            {"-sweep", "pom-mb="},
		"resume w/o ckpt":     {"-sweep", "schemes=pom-tlb", "-resume"},
	}
	for name, args := range cases {
		var sb strings.Builder
		if err := run(context.Background(), args, &sb); err == nil {
			t.Errorf("%s: args %v accepted, want error", name, args)
		}
	}
}

func TestCampaignJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	args := quickArgs("-fig", "9", "-checkpoint", journal)

	var first strings.Builder
	if err := run(context.Background(), args, &first); err != nil {
		t.Fatalf("campaign failed: %v\n%s", err, first.String())
	}

	// Without -resume an existing journal must be refused.
	var sb strings.Builder
	if err := run(context.Background(), args, &sb); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("existing journal not refused: %v", err)
	}

	// With -resume every cell is served from the journal and the figure
	// table is reproduced byte for byte.
	sb.Reset()
	if err := run(context.Background(), append(args, "-resume"), &sb); err != nil {
		t.Fatalf("resume failed: %v\n%s", err, sb.String())
	}
	resumed := sb.String()
	if !strings.HasPrefix(resumed, "resuming: 2 cell(s) already journaled") {
		t.Fatalf("resume did not report the journaled cells:\n%s", resumed)
	}
	if _, table, _ := strings.Cut(resumed, "\n"); table != first.String() {
		t.Errorf("resumed table differs from the original run:\n%s\nvs\n%s", table, first.String())
	}
}

// TestQuickKeepsExplicitFlags pins that -quick only sets defaults: a
// journal written under -quick -cores 4 simulates another machine than
// plain -quick (2 cores), so resuming it there must be refused.
func TestQuickKeepsExplicitFlags(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	var sb strings.Builder
	if err := run(context.Background(), []string{"-quick", "-cores", "4", "-fig", "9",
		"-workloads", "gups", "-checkpoint", journal}, &sb); err != nil {
		t.Fatalf("campaign failed: %v\n%s", err, sb.String())
	}
	sb.Reset()
	err := run(context.Background(), []string{"-quick", "-fig", "9",
		"-workloads", "gups", "-checkpoint", journal, "-resume"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("resume under other -cores not refused: %v\n%s", err, sb.String())
	}
}

func TestConsolidationJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "consol.journal")
	var sb strings.Builder
	if err := run(context.Background(), []string{"-quick", "-consolidation", "consol-smoke", "-checkpoint", journal}, &sb); err != nil {
		t.Fatalf("consolidation run failed: %v\n%s", err, sb.String())
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	want := len(experiments.ConsolidationModes)
	if n := strings.Count(string(raw), `{"kind":"done","key":"consol-smoke|`); n != want {
		t.Errorf("journal holds %d consol-smoke cells, want one per compared scheme (%d):\n%s", n, want, raw)
	}
}

func TestSweepRunAndResume(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.journal")
	csvPath := filepath.Join(dir, "sweep.csv")
	args := quickArgs("-sweep", "schemes=pom-tlb,shared-l2:pom-mb=1,2",
		"-checkpoint", journal, "-sweep-csv", csvPath, "-shards", "2")

	var sb strings.Builder
	if err := run(context.Background(), args, &sb); err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, sb.String())
	}
	csv1, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(csv1), "\n"); got != 9 { // header + 2 wl × 2 schemes × 2 sizes
		t.Fatalf("sweep CSV has %d lines, want 9:\n%s", got, csv1)
	}

	// Without -resume an existing journal must be refused.
	sb.Reset()
	if err := run(context.Background(), args, &sb); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("existing journal not refused: %v", err)
	}

	// With -resume every cell is served from the journal and the CSV is
	// reproduced byte for byte.
	sb.Reset()
	if err := run(context.Background(), append(args, "-resume"), &sb); err != nil {
		t.Fatalf("resume failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "8 from journal") {
		t.Errorf("resume did not serve cells from the journal:\n%s", sb.String())
	}
	csv2, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(csv1) != string(csv2) {
		t.Error("resumed CSV differs from the original run")
	}

	// A resume whose grid does not match the journal's fingerprint must
	// be refused with a clear error.
	sb.Reset()
	err = run(context.Background(), quickArgs("-sweep", "schemes=pom-tlb:pom-mb=1,2,4",
		"-checkpoint", journal, "-resume"), &sb)
	if err == nil || !strings.Contains(err.Error(), "different options or grid geometry") {
		t.Fatalf("grid mismatch not refused: %v", err)
	}
}

func TestSweepQuarantineManifest(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "quarantine.json")
	var sb strings.Builder
	err := run(context.Background(), quickArgs("-sweep", "schemes=pom-tlb:pom-mb=1,2",
		"-fault-panic-rate", "1", "-manifest", manifest), &sb)
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("fully panicking sweep must exit degraded, got: %v", err)
	}
	raw, rerr := os.ReadFile(manifest)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, want := range []string{`"quarantined"`, `"stack"`, "scheduled panic"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("manifest missing %q:\n%s", want, raw)
		}
	}
}
