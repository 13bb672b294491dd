package experiments

import (
	"context"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/resilience/faultinject"
)

// quick returns a fast campaign over a 3-workload subset that spans the
// locality spectrum: streaming, uniform-random and pointer-chase.
func quick() Options {
	o := QuickOptions()
	o.Workloads = []string{"streamcluster", "gups", "mcf"}
	return o
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(quick(), nil)
	a, err := r.Result(context.Background(), "gups", core.POMTLB)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result(context.Background(), "gups", core.POMTLB)
	if err != nil {
		t.Fatal(err)
	}
	if a.PenaltyCycles != b.PenaltyCycles || a.Cycles != b.Cycles {
		t.Error("memoized result differs")
	}
}

// TestRunnerConcurrentCallers calls one runner from several goroutines
// at once: every caller sees the same result, and each cell simulates
// exactly once.
func TestRunnerConcurrentCallers(t *testing.T) {
	opts := sweepTiny()
	opts.Faults = faultinject.NewSchedule() // empty: counts simulations
	r := NewRunner(opts, nil)
	modes := []core.Mode{core.POMTLB, core.TSB}
	results := make([]core.Result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				if err := r.Prefetch(context.Background(), []string{"gups"}, modes); err != nil {
					t.Error(err)
				}
			}
			res, err := r.Result(context.Background(), "gups", core.POMTLB)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i, res := range results {
		if res != results[0] {
			t.Errorf("caller %d saw a different result", i)
		}
	}
	for _, m := range modes {
		if n := opts.Faults.Hits(faultinject.WorkerSite("gups", m.String())); n != 1 {
			t.Errorf("gups/%s simulated %d times, want 1", m, n)
		}
	}
}

func TestRunnerUnknownWorkload(t *testing.T) {
	r := NewRunner(quick(), nil)
	if _, err := r.Result(context.Background(), "nope", core.POMTLB); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestFigure8Shape(t *testing.T) {
	r := NewRunner(quick(), nil)
	rows, sum, err := Figure8(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig8Row{}
	for _, row := range rows {
		byName[row.Name] = row
		if row.POM < 0 || row.POM > 25 {
			t.Errorf("%s: POM improvement %.2f%% out of plausible range", row.Name, row.POM)
		}
	}
	// streamcluster has ~no headroom (paper: ~1%).
	if sc := byName["streamcluster"]; sc.POM > 3 {
		t.Errorf("streamcluster improvement = %.2f%%, paper says ≈ 1%%", sc.POM)
	}
	// gups: POM-TLB ≫ TSB (paper: 16% vs 1.8%).
	if g := byName["gups"]; g.POM <= g.TSB {
		t.Errorf("gups: POM (%.2f%%) should beat TSB (%.2f%%)", g.POM, g.TSB)
	}
	// Averages ordered as in the paper: POM > TSB; POM positive.
	if sum.POMGeomeanPct <= 0 {
		t.Errorf("POM average improvement = %.2f%%", sum.POMGeomeanPct)
	}
	if sum.POMGeomeanPct <= sum.TSBGeomeanPct {
		t.Errorf("POM (%.2f%%) should beat TSB (%.2f%%) on average",
			sum.POMGeomeanPct, sum.TSBGeomeanPct)
	}
}

func TestFigure9And10And11(t *testing.T) {
	r := NewRunner(quick(), nil)
	f9, err := Figure9(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f9 {
		if row.WalkEl < 0.8 {
			t.Errorf("%s: walk elimination %.2f too low for a 16MB POM-TLB", row.Name, row.WalkEl)
		}
		for _, v := range []float64{row.L2D, row.L3D, row.POM} {
			if v < 0 || v > 1 {
				t.Errorf("%s: ratio %f out of range", row.Name, v)
			}
		}
	}
	f10, err := Figure10(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f10 {
		if row.SizeTotal == 0 {
			t.Errorf("%s: size predictor never scored", row.Name)
		}
		if row.SizeAcc < 0.5 {
			t.Errorf("%s: size accuracy %.2f — paper reports ≈ 95%% average", row.Name, row.SizeAcc)
		}
	}
	f11, err := Figure11(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f11 {
		if row.RBH < 0 || row.RBH > 1 {
			t.Errorf("%s: RBH %f out of range", row.Name, row.RBH)
		}
	}
}

func TestFigure12CachingHelps(t *testing.T) {
	r := NewRunner(quick(), nil)
	rows, withAvg, noAvg, err := Figure12(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if withAvg < noAvg {
		t.Errorf("caching should help on average: %.2f%% vs %.2f%%", withAvg, noAvg)
	}
}

func TestFigure2And3(t *testing.T) {
	r := NewRunner(quick(), nil)
	f2, err := Figure2(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f2 {
		if row.SimCyc <= 0 {
			t.Errorf("%s: simulated baseline penalty %f", row.Name, row.SimCyc)
		}
	}
	f3, err := Figure3(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f3 {
		if row.SimRatio < 1 {
			t.Errorf("%s: virtualized should not be cheaper than native (ratio %.2f)",
				row.Name, row.SimRatio)
		}
	}
}

func TestFigure4(t *testing.T) {
	pts := Figure4()
	if len(pts) == 0 || pts[0].Normalized != 1 {
		t.Error("Figure 4 sweep malformed")
	}
}

func TestTables(t *testing.T) {
	t1 := Table1()
	for _, want := range []string{"L2 Unified TLB", "1536", "POM-TLB", "Die-Stacked"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2()
	for _, want := range []string{"mcf", "1158", "streamcluster"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestAblationCapacityInsensitive(t *testing.T) {
	o := quick()
	o.Workloads = nil // sweep uses its own subset
	pts, err := AblationCapacity(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// §4.6: capacity barely matters at these footprints.
	spread := pts[2].MeanImprovementPct - pts[0].MeanImprovementPct
	if spread < -2 || spread > 4 {
		t.Errorf("capacity sweep spread = %.2f%%, paper says <1%%", spread)
	}
	for _, p := range pts {
		if p.WalkElimination < 0.8 {
			t.Errorf("%s: elimination %.2f", p.Label, p.WalkElimination)
		}
	}
}

func TestAblationCoresInsensitive(t *testing.T) {
	pts, err := AblationCores(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"4 cores", "8 cores", "16 cores"}
	if len(pts) != len(want) {
		t.Fatalf("points = %d", len(pts))
	}
	lo, hi := pts[0].MeanImprovementPct, pts[0].MeanImprovementPct
	for i, p := range pts {
		if p.Label != want[i] {
			t.Errorf("point %d = %q, want %q", i, p.Label, want[i])
		}
		lo, hi = math.Min(lo, p.MeanImprovementPct), math.Max(hi, p.MeanImprovementPct)
	}
	// §4.6: the improvement is about the same at every core count.
	if hi-lo >= 1 {
		t.Errorf("core sweep spread = %.2f points, paper says about unchanged", hi-lo)
	}
}

func TestAblationBypass(t *testing.T) {
	pts, err := AblationBypass(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Label != "predictor" || pts[1].Label != "never-bypass" {
		t.Fatalf("points = %+v, want predictor then never-bypass", pts)
	}
	for _, p := range pts {
		if p.MeanPenalty <= 0 || p.WalkElimination < 0.8 {
			t.Errorf("%s: penalty %.1f, elimination %.2f", p.Label, p.MeanPenalty, p.WalkElimination)
		}
	}
}

func TestAblationAssociativity(t *testing.T) {
	pts, err := AblationAssociativity(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Direct-mapped should eliminate fewer walks than 4-way (conflicts).
	if pts[0].WalkElimination > pts[2].WalkElimination {
		t.Errorf("1-way elimination %.3f should not beat 4-way %.3f",
			pts[0].WalkElimination, pts[2].WalkElimination)
	}
}

func TestMultiVMStudy(t *testing.T) {
	pts, err := MultiVMStudy(context.Background(), quick(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.WalkElimination < 0.8 {
			t.Errorf("%s: elimination %.2f — POM-TLB should retain both VMs", p.Label, p.WalkElimination)
		}
	}
}

func TestReportQuick(t *testing.T) {
	var sb strings.Builder
	if err := Report(context.Background(), &sb, NewRunner(quick(), nil), false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Figure 2", "Figure 3", "Figure 4", "Figure 8", "Figure 9",
		"Figure 10", "Figure 11", "Figure 12", "Table 1", "Table 2",
		"POM-TLB",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestAblationTLBAwareCaching(t *testing.T) {
	pts, err := AblationTLBAwareCaching(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.MeanPenalty <= 0 {
			t.Errorf("%s: penalty %f", p.Label, p.MeanPenalty)
		}
	}
}

func TestAblationNeighborPrefetch(t *testing.T) {
	pts, err := AblationNeighborPrefetch(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Prefetching the burst's neighbours should not hurt.
	if pts[1].MeanImprovementPct < pts[0].MeanImprovementPct-0.5 {
		t.Errorf("prefetch hurt: %f vs %f", pts[1].MeanImprovementPct, pts[0].MeanImprovementPct)
	}
}

func TestWriteCSVs(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(quick(), nil)
	paths, err := WriteCSVs(context.Background(), dir, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 7 {
		t.Fatalf("wrote %d CSVs, want 7", len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 2 {
			t.Errorf("%s has no data rows", p)
		}
	}
}

func TestTradeoffStudy(t *testing.T) {
	rows, err := TradeoffStudy(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.CyclesBase == 0 || row.CyclesL4 == 0 || row.CyclesPOM == 0 {
			t.Errorf("%s: zero cycles %+v", row.Name, row)
		}
		// Both uses of the capacity should not make things dramatically
		// worse than the bare baseline.
		if row.L4SpeedupPct < -25 || row.POMSpeedupPct < -25 {
			t.Errorf("%s: implausible slowdowns %+v", row.Name, row)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	// Two independent runners over the same options must produce
	// identical figures, regardless of goroutine scheduling.
	o := quick()
	o.Workloads = []string{"gups"}
	a, _, err := Figure8(context.Background(), NewRunner(o, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Figure8(context.Background(), NewRunner(o, nil))
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Errorf("campaign not deterministic:\n%+v\n%+v", a[0], b[0])
	}
}

func TestNativeStudy(t *testing.T) {
	rows, err := NativeStudy(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		if row.Penalty <= 0 || row.BasePen <= 0 {
			t.Errorf("%s: degenerate penalties %+v", row.Name, row)
		}
		if row.ImprovementPct < 0 {
			t.Errorf("%s: negative improvement %f", row.Name, row.ImprovementPct)
		}
	}
}
