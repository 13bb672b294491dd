package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
)

// allocGen builds a generator whose footprint is small enough to be fully
// demand-mapped during warmup, so steady state touches no new pages.
func allocGen(cores int) trace.Generator {
	return trace.NewUniform(trace.Params{
		Seed:           7,
		FootprintBytes: 4 << 20,
		LargeFrac:      0.25,
		Threads:        cores,
		MeanGap:        4,
		WriteFrac:      0.3,
	})
}

// TestSteadyStateZeroAllocs pins the tentpole property: with self-checking
// off, the per-record hot path of every registered scheme allocates
// nothing once the footprint is mapped and every structure is warm. In
// simbench an allocation would show only as lost throughput, within
// timing noise; this test catches it exactly in 'go test'.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.Cores = 2
			cfg.WarmupRefs = 0
			cfg.MaxRefs = 1
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			g := allocGen(cfg.Cores)
			// Reach steady state: map the whole footprint, warm every TLB,
			// cache, predictor, and the scheduler's per-core rings.
			if err := sys.Advance(ctx, g, 100_000); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(10, func() {
				if err := sys.Advance(ctx, g, 2_000); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("mode %s: %.3f allocs per 2000-record window in steady state, want 0", mode, avg)
			}
		})
	}
}

// TestSteadyStateZeroAllocsNeighborPrefetch covers the §6 extension path
// separately: the prefetch loop decodes the POM-TLB set through
// AppendSet, which must fill a stack array rather than allocate.
func TestSteadyStateZeroAllocsNeighborPrefetch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = POMTLB
	cfg.Cores = 2
	cfg.NeighborPrefetch = true
	cfg.WarmupRefs = 0
	cfg.MaxRefs = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g := allocGen(cfg.Cores)
	if err := sys.Advance(ctx, g, 100_000); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if err := sys.Advance(ctx, g, 2_000); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("neighbor-prefetch: %.3f allocs per window in steady state, want 0", avg)
	}
}

// TestSteadyStateZeroAllocsWithScenario pins the consolidation-layer
// constraint: with a scenario schedule attached (tenant switches at
// quantum boundaries, tier accounting on), the record loop must stay
// allocation-free. Events ride the batch boundaries and the per-tier
// attribution is pure integer work, so nothing may allocate once both
// tenants' footprints are mapped.
func TestSteadyStateZeroAllocsWithScenario(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = POMTLB
	cfg.Cores = 2
	cfg.VMs = 2
	cfg.WarmupRefs = 0
	cfg.MaxRefs = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tenant switch every 1000 records, alternating both VMs across both
	// cores, far past the measured window.
	var events []Event
	for at := uint64(0); at <= 400_000; at += 1000 {
		q := at / 1000
		events = append(events, Event{At: at, Fire: func(s *System) {
			for c := 0; c < cfg.Cores; c++ {
				vm := 1 + (q+uint64(c))%2
				if err := s.SetCoreTenant(c, addr.VMID(vm), 1, uint8(vm%NumTiers)); err != nil {
					t.Error(err)
				}
			}
		}})
	}
	sys.SetEvents(events)
	ctx := context.Background()
	g := allocGen(cfg.Cores)
	if err := sys.Advance(ctx, g, 150_000); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if err := sys.Advance(ctx, g, 2_000); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("scenario: %.3f allocs per 2000-record window in steady state, want 0", avg)
	}
	if !sys.Snapshot().HasTiers() {
		t.Error("tier breakdown empty despite scenario assignment")
	}
}

// TestShadowObservesAfterDevirtualization asserts the devirtualized
// observer seams still deliver every event: with self-checking on, the
// reference models must record at least one checked decision per
// simulated record (each record touches the L1 TLB shadow at minimum),
// and the run must verify clean.
func TestShadowObservesAfterDevirtualization(t *testing.T) {
	for _, mode := range []Mode{Baseline, SharedL2, TSB, POMTLB, Victima, DRAMCache} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.Cores = 2
			cfg.WarmupRefs = 0
			cfg.MaxRefs = 30_000
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sc := sys.EnableSelfCheck()
			res, err := sys.Run(context.Background(), allocGen(cfg.Cores), "devirt")
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Err(); err != nil {
				t.Fatalf("self-check diverged: %v", err)
			}
			if got := sc.Harness().Decisions(); got < res.Records {
				t.Errorf("only %d checked decisions for %d records: shadow hooks are dropping observations",
					got, res.Records)
			}
		})
	}
}

// TestNewSystemHeap pins that building a default system costs what its
// structures hold, not their simulated capacity: the POM-TLB and TSB
// allocate their 16 MiB of slots chunk by chunk as inserts reach them, so
// a fresh system of every registered scheme leaves under 5 MiB of live
// heap.
func TestNewSystemHeap(t *testing.T) {
	const bound = 5 << 20
	for _, mode := range Modes() {
		cfg := DefaultConfig()
		cfg.Mode = mode
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sys)
		live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("%s: %.2f MiB", mode, float64(live)/(1<<20))
		if live > bound {
			t.Errorf("%s: NewSystem leaves %.2f MiB of live heap, want under %d MiB", mode, float64(live)/(1<<20), bound>>20)
		}
	}
}
