package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from the current simulator")

// TestDigests recomputes what the committed digests pin at their seed:
// each loop workload's first-window statistics and sweep-grid's CSV, per
// scheme, at quick scale and (unless -short) full scale. With -update it
// rewrites testdata/digests.json instead; do that only for a change that
// is meant to alter simulated results.
func TestDigests(t *testing.T) {
	ctx := context.Background()
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	scales := []bool{true}
	if !testing.Short() || *update {
		scales = append(scales, false)
	}
	got := map[string]map[string]string{}
	for _, quick := range scales {
		for _, name := range workloadNames[:3] {
			spec, _ := loopSpecFor(name, quick)
			d := map[string]string{}
			for _, mode := range core.Modes() {
				ls, err := spec.build(ctx, mode, table.Seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := ls.sys.Advance(ctx, ls.gen, spec.window); err != nil {
					t.Fatal(err)
				}
				d[string(mode)] = digestResult(ls.sys.Snapshot())
			}
			got[digestKey(name, quick)] = d
		}
		e := &env{seed: table.Seed, quick: quick, workDir: t.TempDir()}
		d := map[string]string{}
		for _, mode := range core.Modes() {
			run, err := sweepOnce(ctx, e, sweepScaleFor(quick), mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			d[string(mode)] = run.csvSum
		}
		got[digestKey("sweep-grid", quick)] = d
	}

	if *update {
		out, err := json.MarshalIndent(digestTable{Seed: table.Seed, Digests: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/digests.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key, d := range got {
		for scheme, sum := range d {
			if want := table.Digests[key][scheme]; sum != want {
				t.Errorf("%s/%s: digest %.12s, committed %.12s", key, scheme, sum, want)
			}
		}
	}
}

// TestPerturbedResultCountsAsFailed feeds verification a first-window
// Result that differs from the committed digest, and a final Result that
// breaks the accounting identities: either fails every window of the
// scheme.
func TestPerturbedResultCountsAsFailed(t *testing.T) {
	ctx := context.Background()
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := loopSpecFor("loop-uniform", true)
	e := &env{seed: table.Seed, quick: true}
	if _, ok := table.want(digestKey(spec.name, e.quick), e.seed, core.Baseline); !ok {
		t.Fatal("no committed digest to check against; run go test -run TestDigests -update")
	}
	ls, err := spec.build(ctx, core.Baseline, e.seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.sys.Advance(ctx, ls.gen, spec.window); err != nil {
		t.Fatal(err)
	}
	ls.windows = 1
	ls.first = ls.sys.Snapshot()

	tally := func(first, final core.Result) *measurement {
		m := newMeasurement()
		ls.first = first
		tallyScheme(m, spec.name, ls.mode, ls.windows, verifyLoop(spec, e, table, ls, final))
		return m
	}
	good := ls.first
	if m := tally(good, good); m.attempted != 1 || m.failed != 0 {
		t.Fatalf("unperturbed: %d attempted, %d failed; want 1, 0", m.attempted, m.failed)
	}
	perturbed := good
	perturbed.Cycles++
	if m := tally(perturbed, good); m.failed != 1 {
		t.Errorf("perturbed first window: %d failed, want 1", m.failed)
	}
	broken := good
	broken.Resolved[core.ResWalk]++
	if m := tally(good, broken); m.failed != 1 {
		t.Errorf("broken accounting: %d failed, want 1", m.failed)
	}
}
