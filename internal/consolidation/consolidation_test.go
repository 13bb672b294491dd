package consolidation

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
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
	if h, w, c := pool.hotN, pool.warmN, len(pool.Tenants)-pool.hotN-pool.warmN; h != 6 || w != 30 || c != 84 {
		t.Fatalf("tier split %d/%d/%d, want 6/30/84", h, w, c)
	}
	for i, tn := range pool.Tenants {
		if tn.VMID != addr.VMID(i+1) || tn.PID != 1 {
			t.Fatalf("tenant %d has identity %d/%d, want %d/1", i, tn.VMID, tn.PID, i+1)
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
	scn, err := New(Config{Preset: smokePreset(t), Cores: 2, Seed: 1, TotalRecords: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if scn.Guests != 16 || scn.Storms == 0 || scn.ChurnEvery == 0 {
		t.Fatalf("unexpected scenario shape: %+v", scn)
	}
	// One tenant-switch event per quantum boundary plus the storms.
	switches := 30_000/2048 + 1
	if got := len(scn.Events); got != switches+scn.Storms {
		t.Fatalf("%d events, want %d switches + %d storms", got, switches, scn.Storms)
	}
	// Overrides: guests, phases, churn off.
	scn, err = New(Config{Preset: smokePreset(t), Cores: 2, Seed: 1, TotalRecords: 30_000,
		Guests: 32, Phases: 3, ChurnEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if scn.Guests != 32 || scn.Phases != 3 || scn.Storms != 0 {
		t.Fatalf("overrides not applied: %+v", scn)
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
	res, err := sys.Run(context.Background(), scn.Gen, scn.Name)
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
	cardShare := float64(scn.Pool.hotN) / float64(scn.Guests)
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
		res, err := sys.Run(context.Background(), scn.Gen, scn.Name)
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
		res, err := sys.Run(context.Background(), scn.Gen, scn.Name)
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
