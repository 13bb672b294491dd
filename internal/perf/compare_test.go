package perf

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestSchemesCoverRegistry(t *testing.T) {
	if !slices.Equal(Schemes, core.Modes()) {
		t.Fatalf("Schemes = %v, want every registered mode %v", Schemes, core.Modes())
	}
}

func trajectory(rps map[string]float64, order ...string) *Trajectory {
	t := &Trajectory{SchemaVersion: SchemaVersion}
	for _, name := range order {
		t.Schemes = append(t.Schemes, SchemeResult{Scheme: name, RecordsPerSec: rps[name]})
	}
	return t
}

func TestCompareListsUngatedSchemes(t *testing.T) {
	old := trajectory(map[string]float64{"baseline": 100, "pom-tlb": 100}, "baseline", "pom-tlb")
	new_ := trajectory(map[string]float64{"baseline": 99, "pom-tlb": 101, "victima": 50},
		"baseline", "pom-tlb", "victima")
	c := Compare(old, new_, 0.05)
	if c.Regressed() {
		t.Fatalf("a scheme without a baseline must not fail the gate:\n%s", c)
	}
	if !slices.Equal(c.Ungated, []string{"victima"}) {
		t.Fatalf("Ungated = %v, want [victima]", c.Ungated)
	}
	if !strings.Contains(c.String(), "victima") || !strings.Contains(c.String(), "ungated (no baseline)") {
		t.Fatalf("table does not list the ungated scheme:\n%s", c)
	}
}

func TestCompareFlagsRegressionAndMissing(t *testing.T) {
	old := trajectory(map[string]float64{"baseline": 100, "tsb": 100}, "baseline", "tsb")
	slow := trajectory(map[string]float64{"baseline": 90, "tsb": 100}, "baseline", "tsb")
	if c := Compare(old, slow, 0.05); !c.Regressed() || !c.Deltas[0].Regressed {
		t.Fatalf("10%% slowdown passed a 5%% gate:\n%s", c)
	}
	gone := trajectory(map[string]float64{"baseline": 100}, "baseline")
	c := Compare(old, gone, 0.05)
	if !c.Regressed() || !slices.Equal(c.Missing, []string{"tsb"}) {
		t.Fatalf("vanished scheme not reported: missing=%v\n%s", c.Missing, c)
	}
}
