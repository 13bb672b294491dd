package core

import (
	"context"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/trace"
)

// hotParams is a reference stream with a hot set big enough to miss the
// L2 TLB but small enough that POM-TLB set lines stay cache-resident.
func hotParams(threads int) trace.Params {
	return trace.Params{
		Seed:           5,
		FootprintBytes: 128 << 20,
		LargeFrac:      0.1,
		Threads:        threads,
		MeanGap:        5,
		WriteFrac:      0.3,
		RunLines:       64,
	}
}

func runHot(t *testing.T, mutate func(*Config)) Result {
	t.Helper()
	cfg := smallConfig(POMTLB)
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), trace.NewHotCold(hotParams(cfg.Cores), 0.2, 0.9), "hot")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNeighborPrefetchReducesL2TLBMisses(t *testing.T) {
	base := runHot(t, nil)
	pref := runHot(t, func(c *Config) { c.NeighborPrefetch = true })
	// Installing the burst's neighbours into the L2 TLB converts future
	// misses on adjacent pages into L2 TLB hits.
	if pref.L2TLB.Misses >= base.L2TLB.Misses {
		t.Errorf("neighbor prefetch should cut L2 TLB misses: %d vs %d",
			pref.L2TLB.Misses, base.L2TLB.Misses)
	}
}

func TestNeighborPrefetchIsCorrect(t *testing.T) {
	// Translations served from prefetched entries must agree with the
	// logical mappings — verified by the data path: a wrong PFN would
	// mean the simulated data access targets an unowned frame, which the
	// deterministic run would surface as divergent stats. Assert directly
	// by re-translating a sample of addresses post-run.
	cfg := smallConfig(POMTLB)
	cfg.NeighborPrefetch = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), trace.NewHotCold(hotParams(cfg.Cores), 0.2, 0.9), "hot"); err != nil {
		t.Fatal(err)
	}
	c := sys.cores[0]
	sample := trace.NewHotCold(hotParams(cfg.Cores), 0.2, 0.9)
	checked := 0
	for i := 0; i < 2000 && checked < 200; i++ {
		va := sample.Next().VA
		want, _, ok := sys.vms[0].Translate(sys.vms[0].GuestTable(c.pid), va)
		if !ok {
			continue
		}
		c.now = c.clock
		got, _ := sys.translate(c, va)
		if got != want {
			t.Fatalf("prefetched translation wrong for %v: %v != %v", va, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no mapped pages to check")
	}
}

func TestTLBAwareCachingChangesBehaviour(t *testing.T) {
	blind := runHot(t, nil)
	tlbFirst := runHot(t, func(c *Config) { c.CachePriority = cache.PreferTLB })
	dataFirst := runHot(t, func(c *Config) { c.CachePriority = cache.PreferData })

	// Preferring TLB entries must not reduce the TLB-entry hit ratio in
	// the caches, and preferring data must not increase it.
	if tlbFirst.L2DProbe.Ratio()+1e-9 < blind.L2DProbe.Ratio()-0.05 {
		t.Errorf("PreferTLB lowered L2D$ TLB hits: %.3f vs %.3f",
			tlbFirst.L2DProbe.Ratio(), blind.L2DProbe.Ratio())
	}
	if dataFirst.L2DProbe.Ratio() > blind.L2DProbe.Ratio()+0.05 {
		t.Errorf("PreferData raised L2D$ TLB hits: %.3f vs %.3f",
			dataFirst.L2DProbe.Ratio(), blind.L2DProbe.Ratio())
	}
	// All three still translate everything correctly.
	for _, r := range []Result{blind, tlbFirst, dataFirst} {
		if r.WalkEliminationRate() < 0.95 {
			t.Errorf("walk elimination dropped: %.3f", r.WalkEliminationRate())
		}
	}
}

func TestCoherenceWriteInvalidate(t *testing.T) {
	cfg := smallConfig(POMTLB)
	cfg.Coherence = true
	cfg.WarmupRefs = 10_000
	cfg.MaxRefs = 40_000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shared hot footprint with plenty of writes: cores write lines the
	// others have cached.
	p := trace.Params{
		Seed: 9, FootprintBytes: 8 << 20, LargeFrac: 0,
		Threads: cfg.Cores, MeanGap: 3, WriteFrac: 0.5,
	}
	res, err := sys.Run(context.Background(), trace.NewUniform(p), "coh")
	if err != nil {
		t.Fatal(err)
	}
	if res.CoherenceInvalidations == 0 {
		t.Error("shared writes should invalidate peer copies")
	}
}

func TestCoherenceSnoopTransfer(t *testing.T) {
	cfg := smallConfig(POMTLB)
	cfg.Coherence = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a line in core 1's private L1D that the shared L3 does not
	// hold; core 0's load must be served by a cache-to-cache transfer.
	const line = uint64(0x1234)
	sys.cores[1].l1d.Fill(line, false, cache.Data)
	if sys.l3.Lookup(line) {
		t.Fatal("test setup: line unexpectedly in L3")
	}
	sys.cores[0].now = 0
	sys.dataAccess(sys.cores[0], addr.HPA(line<<addr.CacheLineShift), false, cache.Data)
	if sys.res.SnoopTransfers != 1 {
		t.Errorf("SnoopTransfers = %d, want 1", sys.res.SnoopTransfers)
	}
	// A store from core 0 now invalidates core 1's copy.
	sys.cores[0].now = 0
	sys.dataAccess(sys.cores[0], addr.HPA(line<<addr.CacheLineShift), true, cache.Data)
	if sys.cores[1].l1d.Lookup(line) {
		t.Error("peer copy survived a coherent store")
	}
	if sys.res.CoherenceInvalidations == 0 {
		t.Error("invalidation not counted")
	}
}

func TestCoherenceOffByDefault(t *testing.T) {
	res := runHot(t, nil)
	if res.CoherenceInvalidations != 0 || res.SnoopTransfers != 0 {
		t.Error("coherence counters should be zero when disabled")
	}
}

func TestHugePageTranslation(t *testing.T) {
	// 1 GB pages exist in the system (Table 1) even though the paper's
	// workloads never use them: map one explicitly and translate through
	// every scheme.
	for _, mode := range []Mode{Baseline, POMTLB, SharedL2, TSB} {
		cfg := smallConfig(mode)
		cfg.WarmupRefs = 0
		cfg.MaxRefs = 1 // Run() not used; we drive translate directly
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vm := sys.vms[0]
		va := addr.VA(0x40_0000_0000) // 1 GB aligned
		if _, err := vm.Touch(vm.GuestTable(1), va, addr.Page1G); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		c := sys.cores[0]
		if cfg.SteadyState {
			sys.seed(c, va)
		}
		want, size, ok := vm.Translate(vm.GuestTable(1), va+12345)
		if !ok || size != addr.Page1G {
			t.Fatalf("%s: logical translate failed (size %v)", mode, size)
		}
		c.now = c.clock
		got, _ := sys.translate(c, va+12345)
		if got != want {
			t.Fatalf("%s: 1GB translate = %v, want %v", mode, got, want)
		}
		// Second access: the L1 huge TLB holds it.
		c.now = c.clock
		sys.translate(c, va+99)
		if !c.l1tlb.Huge.LookupOnly(c.vmid, c.pid, va.VPN(addr.Page1G), addr.Page1G) {
			t.Errorf("%s: huge L1 TLB empty after 1GB translations", mode)
		}
	}
}
