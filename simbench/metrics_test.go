package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// returns.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %g, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %g, want 0", got)
	}
}

// TestOpNormalisesByReferenceRun checks that an unprofiled operation is
// scaled by the reference run made after it, and a profiled one is kept
// as measured without a reference run.
func TestOpNormalisesByReferenceRun(t *testing.T) {
	m := newMeasurement()
	f := m.op(core.Baseline, 1000, time.Millisecond, false)
	if len(m.refRates) != 1 || f != refNominal/m.refRates[0] {
		t.Fatalf("scale %g from reference runs %v, want refNominal over the one run", f, m.refRates)
	}
	if got, want := m.rates[core.Baseline][0], 1e6*f; math.Abs(got-want) > 1e-9*want {
		t.Errorf("normalised rate %g, want %g", got, want)
	}
	if got := m.wall[core.Baseline][0]; math.Abs(got-1e6) > 1e-3 {
		t.Errorf("measured rate %g, want 1e6", got)
	}
	if f := m.op(core.Baseline, 1000, time.Millisecond, true); f != 1 || len(m.refRates) != 1 {
		t.Errorf("profiled op: scale %g after %d reference runs, want 1 after 1", f, len(m.refRates))
	}
}

// TestMetricNamesMatchBenchmarkJSON checks every printed metric name is
// well formed and unique, and that the end-to-end and per-layer sets
// (with units) equal those BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, set := range []struct {
		name      string
		printed   []metricDef
		benchmark []metricDef
	}{
		{"end_to_end", endToEndDefs(), spec.EndToEnd},
		{"per_layer", perLayerDefs(), spec.PerLayer},
	} {
		for _, d := range set.printed {
			if !valid.MatchString(d.Name) || len(d.Name) > 64 {
				t.Errorf("metric name %q is malformed", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q printed twice", d.Name)
			}
			seen[d.Name] = true
		}
		if got, want := sortedDefs(set.printed), sortedDefs(set.benchmark); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: printed %v\nBENCHMARK.json %v", set.name, got, want)
		}
	}
}

func sortedDefs(defs []metricDef) []metricDef {
	s := append([]metricDef(nil), defs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	return s
}
