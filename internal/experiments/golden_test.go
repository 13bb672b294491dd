package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run Golden -update
//
// Rerun without the flag afterwards to confirm the new goldens are
// reproducible.
var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenCompare diffs got against testdata/<name>, rewriting the file
// under -update.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create golden files)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file; inspect the diff and rerun with -update if the change is intended:\n%s",
			name, firstDiff(string(want), string(got)))
	}
}

// goldenOptions is the fixed campaign the goldens are rendered from. It
// must never depend on the environment: any field change invalidates the
// files (that's the point — the goldens pin the full artifact pipeline,
// simulator through formatting).
func goldenOptions() Options {
	o := QuickOptions()
	o.Workloads = []string{"gups", "mcf"}
	return o
}

// TestReportGolden pins the full markdown report byte-for-byte. It
// catches silent drift anywhere in the stack — a model change, a stats
// accounting change, a formatting change — and forces it to be
// acknowledged via -update.
func TestReportGolden(t *testing.T) {
	var sb strings.Builder
	if err := Report(context.Background(), &sb, NewRunner(goldenOptions(), nil), false); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "report_quick.golden", []byte(sb.String()))
}

// TestCrossSchemeGolden pins the cross-scheme comparison table on its
// own: the table covers every registered scheme, so a new registration
// or a behaviour change in any scheme's translation path shows up here
// even if the scheme has no dedicated figure.
func TestCrossSchemeGolden(t *testing.T) {
	rows, err := CrossScheme(context.Background(), NewRunner(goldenOptions(), nil))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteCrossScheme(&sb, rows)
	goldenCompare(t, "cross_scheme_quick.golden", []byte(sb.String()))
}

// TestCSVGolden pins every figure CSV. The CSVs are concatenated into
// one golden with filename banners so the fixture stays a single
// reviewable file.
func TestCSVGolden(t *testing.T) {
	dir := t.TempDir()
	paths, err := WriteCSVs(context.Background(), dir, NewRunner(goldenOptions(), nil))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "==> %s <==\n%s", filepath.Base(p), data)
	}
	goldenCompare(t, "csvs_quick.golden", buf.Bytes())
}
