package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at quick scale, untraced and
// traced, and checks that no operation fails and that the printed result
// carries exactly the declared metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 42, seconds: 0.1, quick: true, traced: traced,
				workDir: t.TempDir(), traceDir: t.TempDir()}
			res, err := benchmark(ctx, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s traced=%v: %d ops, %d failed", name, traced, res.attempted, res.failed)
			}
			defs := endToEndDefs()
			if traced {
				defs = perLayerDefs()
			}
			printed := checkPrinted(t, res)
			var want []string
			for _, d := range defs {
				want = append(want, d.Name)
			}
			sort.Strings(want)
			if !reflect.DeepEqual(printed, want) {
				t.Errorf("%s traced=%v: printed metrics %v\nwant %v", name, traced, printed, want)
			}
			if !traced {
				for _, m := range res.metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m.Name, m.Value)
					}
				}
				continue
			}
			for _, f := range []string{"cpu-00.pprof", "spans.jsonl"} {
				if _, err := os.Stat(filepath.Join(o.traceDir, name, f)); err != nil {
					t.Errorf("%s: traced run wrote no %s: %v", name, f, err)
				}
			}
		}
	}
}

// checkPrinted prints a result and checks its last line is the JSON
// object the benchmark contract asks for, returning its metric names.
func checkPrinted(t *testing.T, res result) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var keys []string
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name, m := range metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("metric %s lacks a value or unit", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
