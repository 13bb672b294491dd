package perfmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/workloads"
)

func TestSpeedupIdentity(t *testing.T) {
	// Scheme penalty equal to baseline penalty → no speedup.
	s := Speedup(Input{OverheadFrac: 0.2, BaselinePenalty: 100, SchemePenalty: 100})
	if math.Abs(s-1) > 1e-12 {
		t.Errorf("speedup = %f, want 1", s)
	}
}

func TestSpeedupEliminatesOverhead(t *testing.T) {
	// Zero scheme penalty removes the whole overhead fraction.
	s := Speedup(Input{OverheadFrac: 0.19, BaselinePenalty: 169, SchemePenalty: 0})
	want := 1 / (1 - 0.19)
	if math.Abs(s-want) > 1e-12 {
		t.Errorf("speedup = %f, want %f", s, want)
	}
}

func TestSpeedupMCFExample(t *testing.T) {
	// mcf: f = 19.01%, P_base = 169. A simulated POM penalty of ~45
	// cycles gives the mid-teens improvement Figure 8 shows.
	p, _ := workloads.ByName("mcf")
	imp := ImprovementPct(FromProfile(p, true, 45))
	if imp < 10 || imp > 20 {
		t.Errorf("mcf improvement = %.1f%%, want mid-teens", imp)
	}
}

func TestStreamclusterHasNoHeadroom(t *testing.T) {
	// streamcluster: f = 2.11% — even a perfect scheme gains ~2%.
	p, _ := workloads.ByName("streamcluster")
	imp := ImprovementPct(FromProfile(p, true, 0))
	if imp > 2.5 {
		t.Errorf("streamcluster improvement = %.1f%% exceeds its overhead", imp)
	}
}

// CIdeal implements Equation (2) over absolute counts. It and the next
// two spell out the equations Speedup folds into its closed form.
func CIdeal(cTotal, pTotal uint64) uint64 {
	if pTotal > cTotal {
		return 0
	}
	return cTotal - pTotal
}

// PAvg implements Equation (3).
func PAvg(pTotal, mTotal uint64) float64 {
	if mTotal == 0 {
		return 0
	}
	return float64(pTotal) / float64(mTotal)
}

// CScheme implements Equation (4).
func CScheme(cIdeal, mTotal uint64, pScheme float64) float64 {
	return float64(cIdeal) + float64(mTotal)*pScheme
}

func TestEquations(t *testing.T) {
	if CIdeal(1000, 300) != 700 {
		t.Error("CIdeal")
	}
	if CIdeal(100, 300) != 0 {
		t.Error("CIdeal should clamp")
	}
	if PAvg(300, 3) != 100 {
		t.Error("PAvg")
	}
	if PAvg(300, 0) != 0 {
		t.Error("PAvg zero misses")
	}
	if CScheme(700, 3, 50) != 850 {
		t.Error("CScheme")
	}
}

func TestEquationsConsistentWithSpeedup(t *testing.T) {
	// The fraction form and the absolute form must agree.
	const (
		cTotal = uint64(1_000_000)
		pTotal = uint64(190_000)
		mTotal = uint64(1_000)
		pNew   = 50.0
	)
	cIdeal := CIdeal(cTotal, pTotal)
	absSpeedup := float64(cTotal) / CScheme(cIdeal, mTotal, pNew)
	in := Input{
		OverheadFrac:    float64(pTotal) / float64(cTotal),
		BaselinePenalty: PAvg(pTotal, mTotal),
		SchemePenalty:   pNew,
	}
	fracSpeedup := Speedup(in)
	if math.Abs(absSpeedup-fracSpeedup) > 1e-9 {
		t.Errorf("absolute %f vs fraction %f", absSpeedup, fracSpeedup)
	}
}

func TestGeomeanImprovementPct(t *testing.T) {
	got := GeomeanImprovementPct([]float64{1.1, 1.1})
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean improvement = %f", got)
	}
}

// Property: speedup is monotonically decreasing in the scheme penalty and
// crosses 1 exactly at the baseline penalty.
func TestSpeedupMonotoneProperty(t *testing.T) {
	f := func(fRaw, pRaw uint16, d uint8) bool {
		frac := float64(fRaw%90)/100 + 0.01
		base := float64(pRaw%1000) + 10
		lo, hi := base-float64(d%10)-1, base+float64(d%10)+1
		sLo := Speedup(Input{OverheadFrac: frac, BaselinePenalty: base, SchemePenalty: lo})
		sHi := Speedup(Input{OverheadFrac: frac, BaselinePenalty: base, SchemePenalty: hi})
		return sLo > 1 && sHi < 1 && sLo > sHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: speedup never exceeds 1/(1-f), the bound from eliminating the
// entire overhead.
func TestSpeedupBoundProperty(t *testing.T) {
	f := func(fRaw, pRaw, sRaw uint16) bool {
		frac := float64(fRaw%90)/100 + 0.01
		base := float64(pRaw%1000) + 1
		scheme := float64(sRaw % 2000)
		s := Speedup(Input{OverheadFrac: frac, BaselinePenalty: base, SchemePenalty: scheme})
		return s <= 1/(1-frac)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromProfileNative(t *testing.T) {
	p, _ := workloads.ByName("astar")
	in := FromProfile(p, false, 50)
	if math.Abs(in.OverheadFrac-0.1389) > 1e-9 || in.BaselinePenalty != 98 || in.SchemePenalty != 50 {
		t.Errorf("native input = %+v", in)
	}
	inv := FromProfile(p, true, 50)
	if math.Abs(inv.OverheadFrac-0.1608) > 1e-9 || inv.BaselinePenalty != 114 || inv.SchemePenalty != 50 {
		t.Errorf("virt input = %+v", inv)
	}
}

// TestFromProfileCapsAtBaseline pins that a simulated penalty above the
// measured baseline of the run's own columns models as no gain, never as
// a slowdown: ccomponent's native baseline is 44 cycles, its virtualized
// one 1158.
func TestFromProfileCapsAtBaseline(t *testing.T) {
	p, _ := workloads.ByName("ccomponent")
	for _, tc := range []struct {
		virtualized  bool
		pen, wantCap float64
	}{
		{false, 200, 44},
		{false, 30, 30},
		{true, 2000, 1158},
		{true, 200, 200},
	} {
		in := FromProfile(p, tc.virtualized, tc.pen)
		if in.SchemePenalty != tc.wantCap {
			t.Errorf("virtualized=%v pen=%v: scheme penalty %v, want %v", tc.virtualized, tc.pen, in.SchemePenalty, tc.wantCap)
		}
		if imp := ImprovementPct(in); imp < -1e-9 {
			t.Errorf("virtualized=%v pen=%v: improvement %v; want no slowdown", tc.virtualized, tc.pen, imp)
		}
	}
}
