package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestParseMode(t *testing.T) {
	for _, name := range []string{"baseline", "pom-tlb", "pom-tlb-nocache", "shared-l2", "tsb", "l4-cache"} {
		if _, err := core.ParseMode(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := core.ParseMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
}

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mcf") || !strings.Contains(sb.String(), "gups") {
		t.Errorf("list output:\n%s", sb.String())
	}
}

func TestRunSimulation(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-workload", "gups", "-cores", "2",
		"-refs", "20000", "-warmup", "40000"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"gups", "pom-tlb", "P_avg", "page walks eliminated", "modelled improvement"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBaselineNative(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-workload", "streamcluster", "-mode", "baseline", "-native",
		"-cores", "2", "-refs", "10000", "-warmup", "10000"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "modelled improvement") {
		t.Error("baseline run should not model an improvement")
	}
}

func TestRunErrors(t *testing.T) {
	consolCfg := config.Default()
	consolCfg.Workload = "consol-smoke"
	consolPath := filepath.Join(t.TempDir(), "consol.json")
	if err := config.Save(consolPath, consolCfg); err != nil {
		t.Fatal(err)
	}
	gups, _ := workloads.ByName("gups")
	oneThread := writeTrace(t, gups.Generator(1, 1), 2000)
	typo := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(typo, []byte(`{"workload":"gups","config":{"Cores":2,"MaxRef":100,"Warmup":5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	small := []string{"-cores", "2", "-refs", "2000", "-warmup", "2000"}
	cases := map[string][]string{
		// A misspelt field would otherwise run the default 1,000,000
		// measured and 200,000 warmup references.
		"unknown config field": {"-config", typo},
		// Every record of a 1-thread trace maps to core 0, so core 1
		// never gets one.
		"1-thread trace on 2 cores": {"-trace", oneThread, "-cores", "2", "-warmup", "100", "-refs", "100"},
		"unknown workload":          {"-workload", "nope", "-refs", "10", "-warmup", "0"},
		"unknown mode":              {"-mode", "nope"},
		"missing config":            {"-config", "/does/not/exist.json"},
		// 3 MB of 16-way L4 is 3072 sets, not a power of two.
		"unbuildable L4": {"-mode", "l4-cache", "-pom-mb", "3", "-refs", "10", "-warmup", "0"},
		// A 1 TiB POM-TLB would exhaust host memory when allocated.
		"1 TiB POM-TLB": {"-pom-mb", "1048576", "-refs", "10", "-warmup", "0"},
		// 2^44 + 16 MB and 2^44 MB wrap to 16 MiB and to zero bytes under
		// a bare shift.
		"-pom-mb 2^44+16": {"-pom-mb", "17592186044432", "-refs", "10", "-warmup", "0"},
		"-pom-mb 2^44":    {"-pom-mb", "17592186044416", "-refs", "10", "-warmup", "0"},
		// -compare and -selfcheck run the synthetic generators, so a
		// -trace beside them would be silently ignored.
		"-trace with -compare":   append([]string{"-trace", "/nonexistent.trc", "-compare", "-workload", "gups"}, small...),
		"-trace with -selfcheck": append([]string{"-trace", "/nonexistent.trc", "-selfcheck", "-workload", "gups"}, small...),
		// A consolidation scenario builds its own machine: one VM per
		// guest, virtualized, from the flags alone.
		"consolidation -native": append([]string{"-workload", "consol-smoke", "-native"}, small...),
		"consolidation -vms":    append([]string{"-workload", "consol-smoke", "-vms", "4"}, small...),
		"consolidation -vms 1":  append([]string{"-workload", "consol-smoke", "-vms", "1"}, small...),
		"consolidation -config": {"-config", consolPath},
		"-tenants on a Table 2": append([]string{"-workload", "mcf", "-tenants", "200"}, small...),
		"-phases on a Table 2":  append([]string{"-workload", "mcf", "-phases", "2"}, small...),
	}
	for name, args := range cases {
		var sb strings.Builder
		if err := run(context.Background(), args, &sb); err == nil {
			t.Errorf("%s: args %v accepted, want error", name, args)
		}
	}
	var sb strings.Builder
	if err := run(context.Background(), cases["1-thread trace on 2 cores"], &sb); !errors.Is(err, core.ErrIdleCore) ||
		!strings.Contains(err.Error(), "-cores") {
		t.Errorf("1-thread trace on 2 cores: %v, want ErrIdleCore suggesting -cores", err)
	}

	// The -config file is the whole machine and workload: a flag that
	// sets part of either beside it is refused by name, not ignored.
	gupsCfg := filepath.Join(t.TempDir(), "gups.json")
	if err := os.WriteFile(gupsCfg, []byte(`{"workload":"gups","config":{"MaxRefs":2000,"WarmupRefs":1000}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-refs", "5000", "-warmup", "7000", "-cores", "4", "-workload", "mcf"},
		{"-mode", "tsb"}, {"-vms", "2"}, {"-native"}, {"-seed", "3"}, {"-pom-mb", "8"},
	} {
		sb.Reset()
		err := run(context.Background(), append([]string{"-config", gupsCfg}, args...), &sb)
		if err == nil || !strings.Contains(err.Error(), "-config") {
			t.Errorf("-config with %v: %v, want an error naming the flags", args, err)
			continue
		}
		for _, a := range args {
			if strings.HasPrefix(a, "-") && !strings.Contains(err.Error(), a) {
				t.Errorf("-config with %v: %q does not name %s", args, err, a)
			}
		}
	}

	// A config file may size every structure. Each one the simulator
	// allocates up front is capped, so a huge size is refused before it
	// is allocated. Each size is otherwise valid: the L2 TLB keeps its 12
	// ways and a power-of-two set count. A set's recency word also caps
	// every cache and SRAM TLB at 16 ways.
	for name, set := range map[string]func(*config.File){
		"huge TSB":        func(f *config.File) { f.Config.Mode = core.TSB; f.Config.TSBCfg.SizeBytes = 1 << 40 },
		"huge L2 TLB":     func(f *config.File) { f.Config.L2TLB.Entries = 12 << 28 },
		"huge PDE cache":  func(f *config.File) { f.Config.Walker.PDEEntries = 1 << 40 },
		"huge nested TLB": func(f *config.File) { f.Config.Walker.NestedTLB = 1 << 40 },
		"huge Victima":    func(f *config.File) { f.Config.Mode = core.Victima; f.Config.VictimaCfg.Sets = 1 << 40 },
		"Victima under a 1 GiB direct-mapped L2": func(f *config.File) {
			f.Config.Mode, f.Config.L2.SizeBytes, f.Config.L2.Ways = core.Victima, 1<<30, 1
		},
		"2^30 DDR channels": func(f *config.File) { f.Config.DDRChannels = 1 << 30 },
		"2^40 DDR banks":    func(f *config.File) { f.Config.DDR.Banks = 1 << 40 },
		"17-way L3":         func(f *config.File) { f.Config.L3.SizeBytes, f.Config.L3.Ways = 17*64*8192, 17 },
	} {
		f := config.Default()
		f.Workload = "gups"
		f.Config.MaxRefs, f.Config.WarmupRefs = 10, 0
		set(&f)
		// Run only what Validate refuses: a size it let through would be
		// allocated, and these would exhaust host memory.
		if err := f.Config.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", name)
			continue
		}
		path := filepath.Join(t.TempDir(), "huge.json")
		if err := config.Save(path, f); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run(context.Background(), []string{"-config", path}, &sb); err == nil ||
			!strings.Contains(err.Error(), "limit") {
			t.Errorf("%s: config accepted or refused for another reason: %v", name, err)
		}
	}
}

func TestRunFromConfigFile(t *testing.T) {
	f := config.Default()
	f.Workload = "gups"
	f.Config.Mode = core.Baseline
	f.Config.Cores = 2
	f.Config.MaxRefs = 10_000
	f.Config.WarmupRefs = 10_000
	path := filepath.Join(t.TempDir(), "c.json")
	if err := config.Save(path, f); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(context.Background(), []string{"-config", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "baseline") {
		t.Errorf("config file not honoured:\n%s", sb.String())
	}
}

// TestRunNativeModelsNativeColumns pins that a bare-metal run models its
// improvement from Table 2's native columns: mcf's simulated native P_avg
// is above its measured native baseline, so the gain is nil, where the
// virtualized columns would report +8.67%.
func TestRunNativeModelsNativeColumns(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-workload", "mcf", "-native", "-mode", "pom-tlb",
		"-cores", "2", "-warmup", "100000", "-refs", "50000"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if want := "modelled improvement over measured baseline: 0.00%"; !strings.Contains(sb.String(), want) {
		t.Errorf("output missing %q:\n%s", want, sb.String())
	}
}

// TestRunJSON pins that -json prints the Result experiments.SimulateCell
// returns for the same cell, for a Table 2 workload and for a scenario.
func TestRunJSON(t *testing.T) {
	for _, name := range []string{"gups", "consol-smoke"} {
		opts := experiments.QuickOptions()
		opts.WarmupRefs, opts.MaxRefs = 5000, 5000
		res, err := experiments.SimulateCell(context.Background(), opts, experiments.Cell{Workload: name, Mode: core.POMTLB})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run(context.Background(), []string{"-workload", name, "-cores", "2",
			"-refs", "5000", "-warmup", "5000", "-json"}, &sb); err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSuffix(sb.String(), "\n"); got != string(want) {
			t.Errorf("%s: -json differs from SimulateCell's Result:\n%s\nwant\n%s", name, got, want)
		}
	}
}

func TestRunCompare(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-workload", "gups", "-cores", "2",
		"-refs", "8000", "-warmup", "20000", "-compare"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"baseline", "pom-tlb", "shared-l2", "tsb", "l4-cache", "WalkElim"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q:\n%s", want, out)
		}
	}
}

// TestRunPrintsStackedCache pins the stacked DRAM cache's rows for both
// schemes that have one: dram-cache's walk cache fills DCache and
// DCacheDRAM, l4-cache's data cache L4Cache and L4DRAMStats. An l4-cache
// run once printed no stacked-cache row at all.
func TestRunPrintsStackedCache(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []core.Mode{core.DRAMCache, core.L4Cache} {
		opts := experiments.DefaultOptions()
		opts.Cores, opts.WarmupRefs, opts.MaxRefs = 2, 20000, 20000
		res, err := experiments.SimulateCell(ctx, opts, experiments.Cell{Workload: "mcf", Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		label, stacked, dram := "walk DRAM-cache", res.DCache, res.DCacheDRAM
		if mode == core.L4Cache {
			label, stacked, dram = "L4 DRAM-cache", res.L4Cache, res.L4DRAMStats
		}
		if stacked.Access[cache.Data].Total() == 0 {
			t.Fatalf("%s: the stacked cache saw no access", mode)
		}
		var sb strings.Builder
		if err := run(ctx, []string{"-workload", "mcf", "-mode", string(mode),
			"-cores", "2", "-warmup", "20000", "-refs", "20000"}, &sb); err != nil {
			t.Fatal(err)
		}
		for row, val := range map[string]string{
			label + " hit":            stats.Pct(stacked.Access[cache.Data].Ratio()),
			label + " row-buffer hit": stats.Pct(dram.RowBufferHitRate()),
		} {
			re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(row) + ` +` + regexp.QuoteMeta(val) + ` *$`)
			if !re.MatchString(sb.String()) {
				t.Errorf("%s: no row %q reading %s:\n%s", mode, row, val, sb.String())
			}
		}
	}
}

// TestRunCompareMatchesCrossScheme pins that -compare is the campaign's
// own table: on a Table 2 workload its output ends with the
// WriteCrossScheme rendering of experiments.CrossScheme under the same
// options, and on a scenario with the WriteConsolidationTiers rendering
// of experiments.ConsolidationTiers over every registered scheme. A
// private copy of the comparison once credited victima and shared-l2
// with +6.80% on ccomponent against Table 2's measured baseline.
func TestRunCompareMatchesCrossScheme(t *testing.T) {
	ctx := context.Background()
	opts := experiments.QuickOptions()
	opts.Workloads = []string{"ccomponent"}
	rows, err := experiments.CrossScheme(ctx, experiments.NewRunner(opts, nil))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	experiments.WriteCrossScheme(&want, rows)
	var sb strings.Builder
	if err := run(ctx, []string{"-workload", "ccomponent", "-compare",
		"-cores", fmt.Sprint(opts.Cores), "-warmup", fmt.Sprint(opts.WarmupRefs),
		"-refs", fmt.Sprint(opts.MaxRefs), "-seed", fmt.Sprint(opts.Seed)}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(sb.String(), want.String()) {
		t.Errorf("-compare output:\n%s\ndoes not end with experiments.CrossScheme's table:\n%s", sb.String(), want.String())
	}

	opts.WarmupRefs, opts.MaxRefs = 3000, 3000
	tiers, err := experiments.ConsolidationTiers(ctx, experiments.NewRunner(opts, nil), "consol-smoke", core.Modes())
	if err != nil {
		t.Fatal(err)
	}
	want.Reset()
	experiments.WriteConsolidationTiers(&want, tiers)
	sb.Reset()
	if err := run(ctx, []string{"-workload", "consol-smoke", "-compare",
		"-cores", fmt.Sprint(opts.Cores), "-warmup", "3000", "-refs", "3000"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(sb.String(), want.String()) {
		t.Errorf("scenario -compare output:\n%s\ndoes not end with experiments.ConsolidationTiers' table:\n%s", sb.String(), want.String())
	}
}

// TestRunTraceReplayNamesTheFile pins that a replay reports the trace
// file as its workload: it has no Table 2 identity, so no profile line
// and no modelled improvement over another workload's measured baseline.
func TestRunTraceReplayNamesTheFile(t *testing.T) {
	p, _ := workloads.ByName("gups")
	path := writeTrace(t, p.Generator(2, 1), 20_000)

	var sb strings.Builder
	if err := run(context.Background(), []string{"-trace", path, "-mode", "victima",
		"-cores", "2", "-warmup", "10000", "-refs", "10000"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if first, _, _ := strings.Cut(out, "\n"); first != "workload  "+path {
		t.Errorf("workload line = %q, want the trace path", first)
	}
	for _, unwanted := range []string{"mcf", "footprint", "modelled improvement"} {
		if strings.Contains(out, unwanted) {
			t.Errorf("replay output mentions %q:\n%s", unwanted, out)
		}
	}
}

// writeTrace records n records of g into a POMTRC01 file and returns its
// path.
func writeTrace(t testing.TB, g trace.Generator, n int) string {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAll(w, g, n); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
