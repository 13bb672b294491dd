package main

import "testing"

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"innermost repo frame wins", []string{"runtime.memmove", "repro/internal/cache.(*Cache).Fill",
			"repro/internal/core.(*System).access", "main.main"}, "cache"},
		{"runtime only", []string{"runtime.mallocgc", "runtime.newobject", "runtime.main"}, "runtime"},
		{"benchmark and stdlib only", []string{"net/http.(*Client).Do", "main.(*client).do"}, "runtime"},
		{"inlined callee expanded first", []string{"repro/internal/tlb.Entry.matches",
			"repro/internal/tlb.(*TLB).Lookup", "repro/internal/core.(*System).translate"}, "tlb"},
		{"small module is other", []string{"repro/internal/addr.Index", "repro/internal/cache.(*Cache).Access"}, "other"},
		{"sub-package maps to its module", []string{"repro/internal/experiments/sweep.(*engine).runCell"}, "experiments"},
		{"closure named after its parent", []string{"repro/internal/core.NewSystem.(*System).walkMemFunc.func1"}, "core"},
		{"empty stack", nil, "runtime"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%s: layerOf(%v) = %q, want %q", tc.name, tc.stack, got, tc.want)
		}
	}
}

func TestStackHolds(t *testing.T) {
	closure := []string{"repro/internal/core.NewSystem.(*System).walkMemFunc.func1", "repro/internal/core.(*System).runRecords"}
	if stackHolds(closure, "repro/internal/core.NewSystem") {
		t.Error("a closure named after NewSystem counted as NewSystem")
	}
	if !stackHolds(closure, "repro/internal/core.(*System).runRecords") {
		t.Error("exact frame not found")
	}
	journal := []string{"repro/internal/experiments.(*SweepJournal).PutDone"}
	if !stackHolds(journal, "repro/internal/experiments.(*SweepJournal).") {
		t.Error("method-set prefix did not match")
	}
}
