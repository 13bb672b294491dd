package consolidation

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func smokePreset(t *testing.T) workloads.Consolidation {
	t.Helper()
	preset, ok := workloads.ConsolidationByName("consol-smoke")
	if !ok {
		t.Fatal("consol-smoke preset missing")
	}
	return preset
}

func TestPoolTiersAndPopularity(t *testing.T) {
	pool, err := NewPool(120, 0.05, 0.25, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pool.Tenants); got != 120 {
		t.Fatalf("pool has %d tenants, want 120", got)
	}
	if n := tierCounts(pool); n != [core.NumTiers]int{6, 30, 84} {
		t.Fatalf("tier split %d/%d/%d, want 6/30/84", n[Hot], n[Warm], n[Cold])
	}
	for i, tn := range pool.Tenants {
		if tn.VMID != addr.VMID(i+1) || tn.PID != 1 {
			t.Fatalf("tenant %d has identity %d/%d, want %d/1", i, tn.VMID, tn.PID, i+1)
		}
		if i > 0 && tn.Tier < pool.Tenants[i-1].Tier {
			t.Fatalf("tenant %d is %s after a %s tenant: tiers must follow rank order", i, tn.Tier, pool.Tenants[i-1].Tier)
		}
	}
	// Popularity is Zipf over rank: sampling the CDF uniformly must hit
	// the 6 hot tenants far more often than their 5% cardinality share.
	r := splitmix{s: 99}
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if pool.Pick(r.Float64()).Tier == Hot {
			hot++
		}
	}
	if frac := float64(hot) / n; frac < 0.4 {
		t.Errorf("hot tier drew %.2f of picks, want Zipf-dominant (>0.4)", frac)
	}
}

// tierCounts counts the pool's tenants per tier.
func tierCounts(pool *Pool) [core.NumTiers]int {
	var n [core.NumTiers]int
	for _, tn := range pool.Tenants {
		n[tn.Tier]++
	}
	return n
}

func TestPoolValidation(t *testing.T) {
	for name, build := range map[string]func() (*Pool, error){
		"too-few-guests": func() (*Pool, error) { return NewPool(2, 0.1, 0.2, 1) },
		"too-many":       func() (*Pool, error) { return NewPool(maxGuests+1, 0.1, 0.2, 1) },
		"no-cold-tail":   func() (*Pool, error) { return NewPool(10, 0.5, 0.5, 1) },
		"bad-skew":       func() (*Pool, error) { return NewPool(10, 0.1, 0.2, 0) },
	} {
		if _, err := build(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestScenarioBuild(t *testing.T) {
	preset := smokePreset(t)
	scn, err := New(Config{Preset: preset, Cores: 2, Seed: 1, TotalRecords: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if scn.Guests != 16 {
		t.Fatalf("unexpected scenario shape: %+v", scn)
	}
	// One tenant-switch event per quantum boundary plus one storm per
	// churn interval: the preset churns every 6,000 records.
	switches := 30_000/2048 + 1
	if got, storms := len(scn.Events), 30_000/int(preset.ChurnEvery); storms == 0 || got != switches+storms {
		t.Fatalf("%d events, want %d switches + %d storms", got, switches, storms)
	}
	// Overrides: churn every 10,000 records makes three storms.
	scn, err = New(Config{Preset: preset, Cores: 2, Seed: 1, TotalRecords: 30_000, ChurnEvery: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scn.Events); got != switches+3 {
		t.Fatalf("churn override: %d events, want %d switches + 3 storms", got, switches)
	}
	// Overrides: guests, phases, churn off.
	scn, err = New(Config{Preset: preset, Cores: 2, Seed: 1, TotalRecords: 30_000,
		Guests: 32, Phases: 3, ChurnEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if scn.Guests != 32 || scn.Phases != 3 || len(scn.Events) != switches {
		t.Fatalf("overrides not applied: %+v", scn)
	}
}

// TestGenFillMatchesNext pins Gen.Fill to Gen.Next record for record
// across several quanta of consol-churn, whose Zipf tenant skew puts one
// tenant on several slots of a quantum, with and without phase-changing
// tenants and at batch sizes that split quanta and slot rotations
// anywhere.
func TestGenFillMatchesNext(t *testing.T) {
	preset, ok := workloads.ConsolidationByName("consol-churn")
	if !ok {
		t.Fatal("consol-churn preset missing")
	}
	const cores, quanta = 4, 6
	n := quanta*int(preset.QuantumRecords) + 100
	build := func(phases int) *Gen {
		scn, err := New(Config{Preset: preset, Cores: cores, Seed: 1, TotalRecords: uint64(n), Phases: phases})
		if err != nil {
			t.Fatal(err)
		}
		return scn.Gen.(*Gen)
	}

	shared := false
	for _, row := range build(0).plan[:quanta+1] {
		seen := map[int]bool{}
		for _, ti := range row {
			shared = shared || seen[ti]
			seen[ti] = true
		}
	}
	if !shared {
		t.Fatal("no quantum in range has one tenant on two slots: the shared-slot path goes untested")
	}

	for _, phases := range []int{1, 3} {
		ref := build(phases)
		want := make([]trace.Record, n)
		for i := range want {
			want[i] = ref.Next()
		}
		for _, batch := range []int{1, 7, 256, 1000} {
			g := build(phases)
			got := make([]trace.Record, n)
			for i := 0; i < n; {
				i += g.Fill(got[i:min(i+batch, n)])
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("phases %d, batches of %d: record %d is %+v, Next gives %+v", phases, batch, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScenarioEndToEnd runs a 100+ guest Zipf scenario with a storm
// schedule through the real simulator and checks the per-tier breakdown
// and the accounting identities — the acceptance-criteria path minus the
// sweep engine (covered in the sweep package's consolidation test).
func TestScenarioEndToEnd(t *testing.T) {
	preset, ok := workloads.ConsolidationByName("consol-churn")
	if !ok {
		t.Fatal("consol-churn preset missing")
	}
	cfg := core.DefaultConfig()
	cfg.Cores = 2
	cfg.WarmupRefs = 8_000
	cfg.MaxRefs = 12_000
	scn, err := New(Config{
		// Seed 2 is a plan whose gang schedule touches all three tiers
		// within this trace length (the cold tail is rare by design).
		Preset: preset, Cores: cfg.Cores, Seed: 2,
		TotalRecords: uint64(cfg.WarmupRefs + cfg.MaxRefs),
		ChurnEvery:   4_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if scn.Guests < 100 {
		t.Fatalf("consol-churn has %d guests, want the 100+ consolidation regime", scn.Guests)
	}
	cfg.VMs = scn.Guests
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetEvents(scn.Events)
	res, err := sys.Run(context.Background(), scn.Gen, preset.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	if !res.HasTiers() {
		t.Fatal("no per-tier breakdown")
	}
	var sum uint64
	for tier := 0; tier < core.NumTiers; tier++ {
		if res.TierRecords[tier] == 0 {
			t.Errorf("tier %s saw no traffic", core.TierNames[tier])
		}
		sum += res.TierRecords[tier]
	}
	if sum != res.Records {
		t.Fatalf("tier records sum to %d, want %d", sum, res.Records)
	}
	// Zipf tenant hotness must show: the 6-ish hot guests out of 120
	// carry a popularity share far above their cardinality share.
	hotShare := res.TierShare(0)
	pool, err := NewPool(scn.Guests, preset.HotFrac, preset.WarmFrac, preset.TenantSkew)
	if err != nil {
		t.Fatal(err)
	}
	cardShare := float64(tierCounts(pool)[Hot]) / float64(scn.Guests)
	if hotShare < 3*cardShare {
		t.Errorf("hot tier share %.3f not Zipf-dominant over cardinality share %.3f", hotShare, cardShare)
	}
}

// TestScenarioDeterministicAcrossSystems pins the resume-byte-identity
// foundation: building and running the identical scenario twice (fresh
// pool, plan, generator, events) yields identical Results.
func TestScenarioDeterministicAcrossSystems(t *testing.T) {
	run := func() core.Result {
		cfg := core.DefaultConfig()
		cfg.Cores = 2
		cfg.WarmupRefs = 5_000
		cfg.MaxRefs = 5_000
		scn, err := New(Config{Preset: smokePreset(t), Cores: cfg.Cores, Seed: 7,
			TotalRecords: uint64(cfg.WarmupRefs + cfg.MaxRefs), Phases: 2})
		if err != nil {
			t.Fatal(err)
		}
		cfg.VMs = scn.Guests
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetEvents(scn.Events)
		res, err := sys.Run(context.Background(), scn.Gen, "consol-smoke")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical scenarios diverge:\n%+v\n%+v", a, b)
	}
}

// TestChurnChangesOutcome: the storm schedule must actually perturb the
// simulation (shootdowns invalidate real translations), not just burn
// events.
func TestChurnChangesOutcome(t *testing.T) {
	run := func(churn int) core.Result {
		cfg := core.DefaultConfig()
		cfg.Cores = 2
		cfg.WarmupRefs = 4_000
		cfg.MaxRefs = 8_000
		scn, err := New(Config{Preset: smokePreset(t), Cores: cfg.Cores, Seed: 3,
			TotalRecords: uint64(cfg.WarmupRefs + cfg.MaxRefs), ChurnEvery: churn})
		if err != nil {
			t.Fatal(err)
		}
		cfg.VMs = scn.Guests
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetEvents(scn.Events)
		res, err := sys.Run(context.Background(), scn.Gen, "consol-smoke")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with, without := run(2000), run(-1)
	if reflect.DeepEqual(with, without) {
		t.Fatal("storm schedule had no effect on the simulation")
	}
	if math.IsNaN(with.AvgPenalty()) {
		t.Fatal("NaN penalty under churn")
	}
}

// scenarioHeapBound caps the live heap of TestScenarioMemory's run,
// which measures about 134 MiB (Go 1.24, linux/amd64) with page-table
// nodes at their 4 KB hardware size and POM-TLB slots at 16 B. The
// bound leaves about 30% headroom and fails a layout that spends more
// host memory per simulated structure: 13 KB nodes holding a
// child-pointer array beside their PTEs, with 32 B slots, take the run
// to about 309 MiB.
const scenarioHeapBound = 176 << 20

// TestScenarioMemory pins memory at the consolidation extreme: the
// consol-churn scenario at its 60k-tenant limit on the POM-TLB, run to
// the end, must leave a live heap under scenarioHeapBound. Every tenant
// the plan schedules gets its own guest and EPT tables, so page-table
// nodes dominate the heap.
func TestScenarioMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a 60k-tenant scenario")
	}
	preset, ok := workloads.ConsolidationByName("consol-churn")
	if !ok {
		t.Fatal("consol-churn preset missing")
	}
	cfg := core.DefaultConfig()
	cfg.Mode = core.POMTLB
	cfg.Cores = 4
	cfg.WarmupRefs = 500_000
	cfg.MaxRefs = 500_000
	scn, err := New(Config{Preset: preset, Cores: cfg.Cores, Seed: 1,
		TotalRecords: uint64(cfg.WarmupRefs + cfg.MaxRefs), Guests: maxGuests})
	if err != nil {
		t.Fatal(err)
	}
	cfg.VMs = scn.Guests
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetEvents(scn.Events)
	if _, err := sys.Run(context.Background(), scn.Gen, preset.Name); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sys)
	runtime.KeepAlive(scn)
	t.Logf("live heap after the run: %.1f MiB (bound %d MiB)", float64(ms.HeapAlloc)/(1<<20), scenarioHeapBound>>20)
	if ms.HeapAlloc > scenarioHeapBound {
		t.Errorf("live heap %.1f MiB exceeds the %d MiB bound", float64(ms.HeapAlloc)/(1<<20), scenarioHeapBound>>20)
	}
}
