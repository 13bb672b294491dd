package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestFingerprintSensitivity(t *testing.T) {
	a := quick()
	b := quick()
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("identical options must fingerprint identically")
	}
	b.Seed = 99
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("changing the seed must change the fingerprint")
	}
	// The workload subset selects cells; it must not invalidate them.
	c := quick()
	c.Workloads = []string{"gups"}
	if Fingerprint(a) != Fingerprint(c) {
		t.Error("workload subset must not change the fingerprint")
	}
	// Every field of the simulated machine counts, not only those a
	// campaign flag sets; the scheme each cell names for itself does not.
	d := quick()
	d.L2.SizeBytes *= 2
	if Fingerprint(a) == Fingerprint(d) {
		t.Error("changing the L2 size must change the fingerprint")
	}
	e := quick()
	e.Mode = core.TSB
	e.WorkloadTimeout = time.Minute
	if Fingerprint(a) != Fingerprint(e) {
		t.Error("the embedded Mode and the timeout must not change the fingerprint")
	}
}

func TestRunnerServesCheckpointedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	opts := quick()
	j, err := OpenSweepJournal(path, Fingerprint(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	canned := core.Result{Workload: "gups", Mode: core.POMTLB, Records: 7}
	if err := j.PutDone("gups|pom-tlb", canned); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(opts, j)
	grid, err := r.Grid(context.Background(), []string{"gups"}, core.POMTLB)
	if err != nil {
		t.Fatal(err)
	}
	if got := grid[0][0]; got.Records != 7 {
		t.Errorf("runner re-simulated a journaled cell: Records=%d", got.Records)
	}
}

func sweepFP(t *testing.T) string {
	t.Helper()
	return SweepFingerprint(quick(), "pom-mb=1,2:pom-ways=2")
}

// TestSweepJournalRoundTrip reopens a journal: completed cells survive.
// A "quarantined" record, which older versions appended, is an unknown
// kind: the open refuses the journal rather than guess at it.
func TestSweepJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	fp := sweepFP(t)
	j, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Result{Workload: "gups", Mode: core.POMTLB, Records: 42, PenaltyCycles: 7}
	if err := j.PutDone("gups|pom-tlb|pom-mb=1", res); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if re.TruncatedRecords() != 0 {
		t.Errorf("clean journal reports %d truncated records", re.TruncatedRecords())
	}
	got, ok := re.Done("gups|pom-tlb|pom-mb=1")
	if !ok || got.Records != 42 || got.PenaltyCycles != 7 {
		t.Errorf("done cell lost or corrupted: %v %+v", ok, got)
	}
	if re.Len() != 1 {
		t.Errorf("Len = %d, want 1", re.Len())
	}
	re.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := `{"kind":"quarantined","key":"mcf|tsb|pom-mb=2","quarantine":{"attempts":3,"error":"boom","stack":"stack..."}}`
	if _, err := fmt.Fprintf(f, "%x %s\n", sha256.Sum256([]byte(payload)), payload); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenSweepJournal(path, fp); err == nil || !strings.Contains(err.Error(), `unknown kind "quarantined"`) {
		t.Errorf("journal with a quarantined record: err = %v, want the unknown-kind refusal", err)
	}
}

func TestSweepJournalSkipsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	fp := sweepFP(t)
	j, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.PutDone("gups|pom-tlb|", core.Result{Records: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a SIGKILL mid-append: a partial record with no newline and
	// a hash that cannot verify.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(strings.Repeat("ab", 32) + ` {"kind":"done","key":"mcf|po`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatalf("torn tail must not fail the load: %v", err)
	}
	defer re.Close()
	if re.TruncatedRecords() != 1 {
		t.Errorf("TruncatedRecords = %d, want 1", re.TruncatedRecords())
	}
	if _, ok := re.Done("gups|pom-tlb|"); !ok {
		t.Error("completed cell before the torn tail was lost")
	}
	if re.Len() != 1 {
		t.Errorf("Len = %d, want 1", re.Len())
	}

	// The journal must still be appendable after a torn-tail recovery, and
	// the appended record must survive a reload even though it follows the
	// torn bytes... the torn line has no newline, so the next append starts
	// mid-line; reopening must still refuse nothing before the tail.
	if err := re.PutDone("astar|tsb|", core.Result{Records: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	fp := sweepFP(t)
	j, err := OpenSweepJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	j.PutDone("a|pom-tlb|", core.Result{})
	j.PutDone("b|pom-tlb|", core.Result{})
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload (not the tail).
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines", len(lines))
	}
	mid := []byte(lines[1])
	mid[70] ^= 0xFF
	lines[1] = string(mid)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSweepJournal(path, fp); err == nil {
		t.Fatal("mid-file corruption must fail the load")
	} else if !strings.Contains(err.Error(), "refusing to resume") {
		t.Errorf("unhelpful corruption error: %v", err)
	}
}

func TestSweepJournalFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenSweepJournal(path, SweepFingerprint(quick(), "pom-mb=1"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, err = OpenSweepJournal(path, SweepFingerprint(quick(), "pom-mb=1,2"))
	if err == nil {
		t.Fatal("grid geometry change accepted by resume")
	}
	if !strings.Contains(err.Error(), "grid geometry") {
		t.Errorf("unhelpful mismatch error: %v", err)
	}
}

// TestSweepJournalRefusesOtherVersion opens a journal whose header has
// the right fingerprint but another format version: its records may hold
// Results of another shape, so it must be refused and left as it was.
func TestSweepJournalRefusesOtherVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	fp := sweepFP(t)
	var raw []byte
	for _, rec := range []sweepRecord{
		{Kind: "header", Version: 2, Fingerprint: fp},
		{Kind: "done", Key: "a|pom-tlb|", Result: &core.Result{Records: 1}},
	} {
		line, err := sweepLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, line...)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenSweepJournal(path, fp)
	if err == nil {
		j.Close()
		t.Fatal("journal of format version 2 accepted by resume")
	}
	if !strings.Contains(err.Error(), "journal format 2") {
		t.Errorf("unhelpful version error: %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
		t.Errorf("refused journal was modified: %q (%v)", after, err)
	}
}

// TestSweepJournalVsLegacyCheckpoint opens a whole-file JSON checkpoint,
// the format older versions wrote, as a journal: it must be refused with
// a clear error and left byte for byte as it was.
func TestSweepJournalVsLegacyCheckpoint(t *testing.T) {
	legacy := filepath.Join(t.TempDir(), "campaign.json")
	raw := []byte(`{"version":1,"fingerprint":"fp","cells":{}}`)
	if err := os.WriteFile(legacy, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSweepJournal(legacy, "fp"); err == nil {
		t.Fatal("JSON checkpoint accepted as a journal")
	} else if !strings.Contains(err.Error(), "whole-file JSON checkpoint") {
		t.Errorf("unhelpful error: %v", err)
	}
	if after, err := os.ReadFile(legacy); err != nil || !bytes.Equal(after, raw) {
		t.Errorf("refused checkpoint was modified: %q (%v)", after, err)
	}
}

func TestSweepJournalTornHeaderRecreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	// A file killed mid-header-write: some bytes, no complete record.
	if err := os.WriteFile(path, []byte("0123abcd partial-head"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenSweepJournal(path, "fp")
	if err != nil {
		t.Fatalf("torn header must recreate the journal: %v", err)
	}
	defer j.Close()
	if j.TruncatedRecords() != 1 {
		t.Errorf("TruncatedRecords = %d, want 1", j.TruncatedRecords())
	}
	if err := j.PutDone("a|pom-tlb|", core.Result{}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepJournalNilSafe(t *testing.T) {
	var j *SweepJournal
	if _, ok := j.Done("x"); ok {
		t.Error("nil journal returned a cell")
	}
	if err := j.PutDone("x", core.Result{}); err != nil {
		t.Error("nil PutDone must be a no-op")
	}
	if j.Len() != 0 || j.TruncatedRecords() != 0 {
		t.Error("nil accessors must return zero values")
	}
	if err := j.Close(); err != nil {
		t.Error("nil Close must be a no-op")
	}
}

func TestSweepFingerprintCoversGeometry(t *testing.T) {
	a := SweepFingerprint(quick(), "pom-mb=1,2")
	if b := SweepFingerprint(quick(), "pom-mb=1,2,4"); a == b {
		t.Error("grid change must change the sweep fingerprint")
	}
	o := quick()
	o.Seed = 99
	if b := SweepFingerprint(o, "pom-mb=1,2"); a == b {
		t.Error("options change must change the sweep fingerprint")
	}
}
