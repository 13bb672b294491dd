package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
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
	small := []string{"-cores", "2", "-refs", "2000", "-warmup", "2000"}
	cases := map[string][]string{
		"unknown workload": {"-workload", "nope", "-refs", "10", "-warmup", "0"},
		"unknown mode":     {"-mode", "nope"},
		"missing config":   {"-config", "/does/not/exist.json"},
		// 3 MB of 16-way L4 is 3072 sets, not a power of two.
		"unbuildable L4": {"-mode", "l4-cache", "-pom-mb", "3", "-refs", "10", "-warmup", "0"},
		// A 1 TiB POM-TLB would exhaust host memory when allocated.
		"1 TiB POM-TLB": {"-pom-mb", "1048576", "-refs", "10", "-warmup", "0"},
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

func TestRunJSON(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-workload", "gups", "-cores", "2",
		"-refs", "5000", "-warmup", "5000", "-json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := jsonUnmarshal(sb.String(), &decoded); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if _, ok := decoded["L2TLB"]; !ok {
		t.Error("JSON missing L2TLB field")
	}
}

func jsonUnmarshal(s string, v any) error {
	return json.Unmarshal([]byte(s), v)
}

func TestRunCompare(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-workload", "gups", "-cores", "2",
		"-refs", "8000", "-warmup", "20000", "-compare"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"baseline", "pom-tlb", "shared-l2", "tsb", "l4-cache", "walk elim"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q:\n%s", want, out)
		}
	}
}
