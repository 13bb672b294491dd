package workloads

import (
	"math"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
)

func TestAllFifteenBenchmarks(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("Table 2 has 15 benchmarks, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.Name] {
			t.Errorf("duplicate benchmark %q", p.Name)
		}
		seen[p.Name] = true
	}
}

// TestTable2ValuesSane also checks what perfmodel.Speedup needs of every
// row: both overhead columns in [0, 100) and both penalty columns above 0.
func TestTable2ValuesSane(t *testing.T) {
	for _, p := range All() {
		if p.OverheadVirtPct <= 0 || p.OverheadVirtPct >= 100 {
			t.Errorf("%s: OverheadVirtPct = %f", p.Name, p.OverheadVirtPct)
		}
		if p.OverheadNativePct < 0 || p.OverheadNativePct >= 100 {
			t.Errorf("%s: OverheadNativePct = %f", p.Name, p.OverheadNativePct)
		}
		if p.CyclesPerMissNative <= 0 {
			t.Errorf("%s: CyclesPerMissNative = %f", p.Name, p.CyclesPerMissNative)
		}
		if p.CyclesPerMissVirt < p.CyclesPerMissNative {
			t.Errorf("%s: virtualized misses should not be cheaper (%f < %f)",
				p.Name, p.CyclesPerMissVirt, p.CyclesPerMissNative)
		}
		if p.LargePagePct < 0 || p.LargePagePct > 100 {
			t.Errorf("%s: LargePagePct = %f", p.Name, p.LargePagePct)
		}
		if p.FootprintBytes < 32<<20 {
			t.Errorf("%s: footprint %d too small to stress the L2 TLB", p.Name, p.FootprintBytes)
		}
	}
}

func TestSpotCheckPublishedValues(t *testing.T) {
	mcf, ok := ByName("mcf")
	if !ok {
		t.Fatal("mcf missing")
	}
	if mcf.OverheadVirtPct != 19.01 || mcf.CyclesPerMissVirt != 169 || mcf.LargePagePct != 60.7 {
		t.Errorf("mcf values drifted from Table 2: %+v", mcf)
	}
	cc, _ := ByName("ccomponent")
	if cc.CyclesPerMissVirt != 1158 {
		t.Errorf("ccomponent cycles/miss = %f, Table 2 says 1158", cc.CyclesPerMissVirt)
	}
	sc, _ := ByName("streamcluster")
	if sc.OverheadVirtPct != 2.11 {
		t.Errorf("streamcluster overhead = %f", sc.OverheadVirtPct)
	}
}

func TestVirtOverNativeRatioMatchesFig3(t *testing.T) {
	// Figure 3's headline ratios: ccomponent ≈ 26×, mcf ≈ 2.5×, gcc ≈ 1.9×.
	cases := map[string]float64{"ccomponent": 26.3, "mcf": 2.56, "gcc": 1.91, "lbm": 2.64}
	for name, want := range cases {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if got := p.VirtOverNativeRatio(); math.Abs(got-want) > 0.1 {
			t.Errorf("%s ratio = %.2f, want ≈ %.2f", name, got, want)
		}
	}
	var zero Profile
	if zero.VirtOverNativeRatio() != 0 {
		t.Error("zero profile ratio should be 0")
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("nonexistent"); ok {
		t.Error("nonexistent benchmark found")
	}
	names := Names()
	if len(names) != 15 || names[0] != "astar" {
		t.Errorf("Names() = %v", names)
	}
}

func TestGeneratorsBuildForAll(t *testing.T) {
	for _, p := range All() {
		g := p.Generator(8, 1)
		if g == nil {
			t.Fatalf("%s: nil generator", p.Name)
		}
		recs := trace.Collect(g, 2000)
		large := 0
		for _, r := range recs {
			if r.Size == addr.Page2M {
				large++
			}
		}
		frac := float64(large) / float64(len(recs))
		// Large-page access fraction should track the profile loosely.
		// Zipf and hot/cold patterns concentrate accesses unevenly across
		// the two regions, so allow wide tolerance; streaming is tight.
		if p.LargePagePct > 30 && frac == 0 {
			t.Errorf("%s: no large-page accesses despite %.0f%% large pages", p.Name, p.LargePagePct)
		}
		if p.LargePagePct < 1 && frac > 0.2 {
			t.Errorf("%s: %.2f large-page accesses despite tiny large fraction", p.Name, frac)
		}
	}
}

func TestGeneratorDeterministicPerProfile(t *testing.T) {
	p, _ := ByName("gups")
	a := trace.Collect(p.Generator(8, 7), 100)
	b := trace.Collect(p.Generator(8, 7), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c := trace.Collect(p.Generator(8, 8), 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestPatternString(t *testing.T) {
	for pat, want := range map[Pattern]string{
		Streaming: "streaming", UniformRandom: "uniform", PowerLaw: "powerlaw",
		PointerChase: "chase", WorkingSet: "workingset", StreamMix: "streammix",
	} {
		if pat.String() != want {
			t.Errorf("%d.String() = %q", pat, pat.String())
		}
	}
	if !strings.HasPrefix(Pattern(99).String(), "Pattern(") {
		t.Error("unknown pattern string")
	}
}

func TestUnknownPatternPanics(t *testing.T) {
	p := Profile{Name: "bad", Pattern: Pattern(99), FootprintBytes: 64 << 20}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.Generator(1, 1)
}

// TestProfilesCalibrated: the generated streams must actually exhibit the
// characteristics their profiles declare — a regression net for the trace
// calibration that DESIGN.md §5.7 documents.
func TestProfilesCalibrated(t *testing.T) {
	for _, p := range All() {
		a := trace.Analyze(p.Generator(8, 1), 40_000)
		// Large-page access fraction tracks the profile loosely (hot sets
		// deliberately live in the 4 KB region, so the access share is at
		// or below the page share).
		declared := p.LargePagePct / 100
		large := 0
		for _, rec := range trace.Collect(p.Generator(8, 1), 40_000) {
			if rec.Size == addr.Page2M {
				large++
			}
		}
		if frac := float64(large) / 40_000; declared > 0.3 && frac > declared+0.25 {
			t.Errorf("%s: large-access frac %.2f far above declared %.2f",
				p.Name, frac, declared)
		}
		// Mean gap ≈ MeanGap parameter.
		if p.MeanGap > 0 {
			lo, hi := float64(p.MeanGap)*0.7, float64(p.MeanGap)*1.3
			if a.MeanGap < lo || a.MeanGap > hi {
				t.Errorf("%s: mean gap %.1f outside [%.1f, %.1f]", p.Name, a.MeanGap, lo, hi)
			}
		}
		// Write fraction ≈ WriteFrac.
		if a.WriteFrac < p.WriteFrac-0.1 || a.WriteFrac > p.WriteFrac+0.1 {
			t.Errorf("%s: write frac %.2f vs declared %.2f", p.Name, a.WriteFrac, p.WriteFrac)
		}
		// Locality classes: streaming ≫ sequential; gups ≈ none.
		switch p.Pattern {
		case Streaming:
			if a.SequentialFrac < 0.9 {
				t.Errorf("%s: streaming sequential frac %.2f", p.Name, a.SequentialFrac)
			}
		case UniformRandom:
			if a.SequentialFrac > 0.1 {
				t.Errorf("%s: gups should have no runs, got %.2f", p.Name, a.SequentialFrac)
			}
		case WorkingSet:
			if a.SequentialFrac < 0.5 {
				t.Errorf("%s: working-set runs too short: %.2f", p.Name, a.SequentialFrac)
			}
		}
	}
}
