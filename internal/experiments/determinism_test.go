package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// tiny returns the smallest campaign that still renders every report
// section: one workload, quick trace lengths.
func tiny() Options {
	o := QuickOptions()
	o.Workloads = []string{"gups"}
	return o
}

// TestReportByteIdentical is the seed-determinism regression at the
// artifact level: two fresh campaigns from identical options must render
// byte-identical markdown reports — any drift means a map iteration,
// goroutine race or time dependence leaked into the results.
func TestReportByteIdentical(t *testing.T) {
	render := func() string {
		var sb strings.Builder
		if err := Report(context.Background(), &sb, NewRunner(tiny(), nil), false); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("fresh campaigns rendered different reports:\n%s", firstDiff(a, b))
	}
}

// TestCSVsByteIdentical extends the property to the CSV artifacts.
func TestCSVsByteIdentical(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	pathsA, err := WriteCSVs(context.Background(), dirA, NewRunner(tiny(), nil))
	if err != nil {
		t.Fatal(err)
	}
	pathsB, err := WriteCSVs(context.Background(), dirB, NewRunner(tiny(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(pathsA) != len(pathsB) {
		t.Fatalf("wrote %d vs %d CSVs", len(pathsA), len(pathsB))
	}
	for i := range pathsA {
		a, err := os.ReadFile(pathsA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pathsB[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between identical campaigns", filepath.Base(pathsA[i]))
		}
	}
}

// TestResumedReportMatchesFresh runs one campaign journaling every cell,
// then renders the same report from a second process-worth of state: a
// fresh runner resuming from the reopened journal. The resumed report
// must be byte-identical to the fresh one — resume must change where
// results come from, never what they are.
func TestResumedReportMatchesFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")

	// render reports over the journal and returns how many cells it held
	// before the campaign ran.
	render := func() (string, int) {
		j, err := OpenSweepJournal(path, Fingerprint(tiny()))
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		held := j.Len()
		var sb strings.Builder
		if err := Report(context.Background(), &sb, NewRunner(tiny(), j), false); err != nil {
			t.Fatal(err)
		}
		return sb.String(), held
	}
	fresh, _ := render()
	resumed, held := render()
	if held == 0 {
		t.Fatal("first campaign journaled no cells; resume test is vacuous")
	}
	if fresh != resumed {
		t.Fatalf("resumed report differs from fresh:\n%s", firstDiff(fresh, resumed))
	}
}

// firstDiff renders the first differing line of two texts for a readable
// failure message.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, la[i], lb[i])
		}
	}
	return "texts differ in length"
}

// FuzzOpenSweepJournal fuzzes the journal loader against arbitrary
// existing files: it must never panic, a file it refuses must stay
// byte-identical on disk, and a file it accepts must round-trip a PutDone
// through Close and a reopen.
func FuzzOpenSweepJournal(f *testing.F) {
	fp := Fingerprint(QuickOptions())
	var valid []byte
	for _, rec := range []sweepRecord{
		{Kind: "header", Version: journalVersion, Fingerprint: fp},
		{Kind: "done", Key: "gups|pom-tlb", Result: &core.Result{Records: 7}},
	} {
		line, err := sweepLine(rec)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, line...)
	}
	f.Add([]byte{})
	f.Add([]byte(`{"version":1,"fingerprint":"` + fp + `","cells":{}}`))
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // the final record's newline never landed
	f.Add(append(valid[:len(valid):len(valid)], "deadbeef"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenSweepJournal(path, fp)
		if err != nil {
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(after, data) {
				t.Fatalf("refused journal was modified on disk (%v)", err)
			}
			return
		}
		want := core.Result{Records: 123, Cycles: 456}
		if err := j.PutDone("wl|pom-tlb", want); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenSweepJournal(path, fp)
		if err != nil {
			t.Fatalf("journal written by PutDone failed to reopen: %v", err)
		}
		defer re.Close()
		got, ok := re.Done("wl|pom-tlb")
		if !ok || got.Records != want.Records || got.Cycles != want.Cycles {
			t.Fatalf("round trip lost the cell: %+v ok=%v", got, ok)
		}
	})
}
