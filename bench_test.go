package repro

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (run them with `go test -bench=. -benchmem`),
// plus ablation benches for the design choices DESIGN.md calls out and
// micro-benchmarks of the hot substrate paths.
//
// The figure benches report the regenerated quantities as custom metrics
// (b.ReportMetric), so a single -bench run prints the reproduced series
// alongside the usual ns/op.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/pagetable"
	"repro/internal/pomtlb"
	"repro/internal/tlb"
	"repro/internal/virt"
	"repro/internal/workloads"
)

// metricName sanitizes a label for b.ReportMetric (no whitespace allowed).
func metricName(label string) string {
	return strings.ReplaceAll(label, " ", "_")
}

// benchOpts is a reduced campaign so a full -bench run stays tractable;
// use cmd/experiments for publication-scale runs.
func benchOpts(names ...string) experiments.Options {
	o := experiments.DefaultOptions()
	o.Cores = 2
	o.WarmupRefs = 120_000
	o.MaxRefs = 60_000
	o.Workloads = names
	return o
}

// --- Figure 1: the 2D nested walk ---------------------------------------

func BenchmarkFig1NestedWalk(b *testing.B) {
	hyp := virt.NewHypervisor(virt.DefaultConfig())
	vm, err := hyp.NewVM(1)
	if err != nil {
		b.Fatal(err)
	}
	va := addr.VA(0x7f00_0000_1000)
	if _, err := vm.Touch(1, va, addr.Page4K); err != nil {
		b.Fatal(err)
	}
	w := pagetable.NewWalker(pagetable.DefaultWalkerConfig(),
		func(a addr.HPA, write bool) uint64 { return 100 })
	var refs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.InvalidateAll() // keep every walk cold: the Figure 1 case
		res := w.Translate2D(vm.GuestTable(1), vm.EPT(), 1, 1, va)
		refs = res.Refs
	}
	b.ReportMetric(float64(refs), "refs/walk")
}

// --- Figure 2: baseline translation cycles per L2 TLB miss ---------------

func BenchmarkFig2TranslationCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts("mcf", "gups", "streamcluster"), nil)
		rows, err := experiments.Figure2(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(row.SimCyc, row.Name+"_cyc")
		}
	}
}

// --- Figure 3: virtualized over native translation cost ------------------

func BenchmarkFig3VirtNativeRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts("mcf", "gups"), nil)
		rows, err := experiments.Figure3(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(row.SimRatio, row.Name+"_ratio")
		}
	}
}

// --- Figure 4: SRAM latency scaling --------------------------------------

func BenchmarkFig4SRAMScaling(b *testing.B) {
	m := cacti.Default()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, pt := range m.Sweep() {
			last = pt.Normalized
		}
	}
	b.ReportMetric(last, "norm_lat_16MB")
}

// --- Figure 8: the headline speedups --------------------------------------

func BenchmarkFig8Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts("mcf", "gups", "streamcluster"), nil)
		_, sum, err := experiments.Figure8(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.POMGeomeanPct, "pom_%")
		b.ReportMetric(sum.SharedGeomeanPct, "shared_%")
		b.ReportMetric(sum.TSBGeomeanPct, "tsb_%")
	}
}

// --- Figure 9: hit ratios per level ---------------------------------------

func BenchmarkFig9HitRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts("mcf", "lbm"), nil)
		rows, err := experiments.Figure9(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(100*row.L2D, row.Name+"_L2D%")
			b.ReportMetric(100*row.WalkEl, row.Name+"_elim%")
		}
	}
}

// --- Figure 10: predictor accuracy ----------------------------------------

func BenchmarkFig10Predictors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts("mcf", "lbm"), nil)
		rows, err := experiments.Figure10(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(100*row.SizeAcc, row.Name+"_size%")
			b.ReportMetric(100*row.BypassAcc, row.Name+"_bypass%")
		}
	}
}

// --- Figure 11: row-buffer hits --------------------------------------------

func BenchmarkFig11RowBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts("streamcluster", "gups"), nil)
		rows, err := experiments.Figure11(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(100*row.RBH, row.Name+"_rbh%")
		}
	}
}

// --- Figure 12: caching ablation -------------------------------------------

func BenchmarkFig12Caching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts("mcf", "lbm"), nil)
		_, withAvg, noAvg, err := experiments.Figure12(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(withAvg, "with_%")
		b.ReportMetric(noAvg, "without_%")
	}
}

// --- §4.6 and design-choice ablations ---------------------------------------

func BenchmarkAblationCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationCapacity(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.MeanImprovementPct, metricName(p.Label)+"_%")
		}
	}
}

func BenchmarkAblationCores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationCores(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.MeanImprovementPct, metricName(p.Label)+"_%")
		}
	}
}

func BenchmarkAblationAssociativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationAssociativity(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(100*p.WalkElimination, metricName(p.Label)+"_elim%")
		}
	}
}

func BenchmarkAblationBypass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationBypass(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.MeanPenalty, metricName(p.Label)+"_Pavg")
		}
	}
}

// --- Micro-benchmarks of the hot substrate paths ----------------------------

func BenchmarkPOMTLBSearch(b *testing.B) {
	t := pomtlb.New(pomtlb.DefaultConfig())
	for vpn := uint64(0); vpn < 10_000; vpn++ {
		t.Small.Insert(pomtlb.Entry{Valid: true, VM: 1, PID: 1, VPN: vpn, PFN: vpn, Size: addr.Page4K})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Small.Search(1, 1, addr.VA(uint64(i%10_000)<<12))
	}
}

func BenchmarkPOMTLBEntryCodec(b *testing.B) {
	e := pomtlb.Entry{Valid: true, VM: 3, PID: 7, VPN: 0x12345, PFN: 0x6789A,
		Size: addr.Page2M, LRU: 2, Attr: 0x5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := pomtlb.DecodeEntry(e.Encode()); !got.Valid {
			b.Fatal("roundtrip lost entry")
		}
	}
}

func BenchmarkSRAMTLBLookup(b *testing.B) {
	t := tlb.MustNew(tlb.L2Unified())
	for vpn := uint64(0); vpn < 1536; vpn++ {
		t.Insert(tlb.Entry{VM: 1, PID: 1, VPN: vpn, PFN: vpn, Size: addr.Page4K, Valid: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(1, 1, addr.VA(uint64(i%1536)<<12))
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.MustNew(cache.L2())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i % 8192)
		if !c.Access(line, false, cache.Data) {
			c.Fill(line, false, cache.Data)
		}
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	ch := dram.MustNew(dram.DieStacked())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Access(uint64(i)*10, addr.HPA(uint64(i%100_000)*64), false)
	}
}

func BenchmarkNestedWalkWarm(b *testing.B) {
	hyp := virt.NewHypervisor(virt.DefaultConfig())
	vm, _ := hyp.NewVM(1)
	va := addr.VA(0x7f00_0000_1000)
	vm.Touch(1, va, addr.Page4K)
	w := pagetable.NewWalker(pagetable.DefaultWalkerConfig(),
		func(a addr.HPA, write bool) uint64 { return 1 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Translate2D(vm.GuestTable(1), vm.EPT(), 1, 1, va)
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	p, _ := workloads.ByName("mcf")
	g := p.Generator(8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	// End-to-end: simulated references per second through the full
	// POM-TLB system.
	cfg := core.DefaultConfig()
	cfg.Cores = 2
	cfg.WarmupRefs = 0
	cfg.MaxRefs = b.N + 1
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := workloads.ByName("gups")
	g := p.Generator(cfg.Cores, 1)
	b.ResetTimer()
	if _, err := sys.Run(context.Background(), g, "bench"); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAblationTLBAwareCaching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationTLBAwareCaching(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.MeanPenalty, metricName(p.Label)+"_Pavg")
		}
	}
}

func BenchmarkAblationNeighborPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationNeighborPrefetch(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.MeanImprovementPct, metricName(p.Label)+"_%")
		}
	}
}

func BenchmarkTradeoffL4VsPOM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TradeoffStudy(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(row.POMSpeedupPct-row.L4SpeedupPct, row.Name+"_pom_minus_l4_%")
		}
	}
}

func BenchmarkFRFCFSScheduler(b *testing.B) {
	s := dram.NewScheduler(dram.DieStacked())
	reqs := make([]dram.Request, 10_000)
	x := uint64(0x9E3779B9)
	for i := range reqs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		reqs[i] = dram.Request{Arrival: uint64(i) * 30, Addr: (x % (1 << 28)) &^ 63}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := s.Run(reqs)
		if i == 0 {
			b.ReportMetric(100*dram.RowBufferHitRate(cs), "rbh_%")
		}
	}
}

func BenchmarkNativeStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.NativeStudy(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.Name == "mcf" || row.Name == "gups" {
				b.ReportMetric(row.ImprovementPct, row.Name+"_native_%")
			}
		}
	}
}
