package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

func snapshotGen() trace.Generator {
	return trace.NewUniform(trace.Params{
		Seed:           11,
		FootprintBytes: 8 << 20,
		LargeFrac:      0.3,
		Threads:        2,
		MeanGap:        6,
		WriteFrac:      0.25,
	})
}

// TestAdvanceSnapshotMatchesRun pins the equivalence the pomsimd session
// worker depends on: driving a System with Advance + ResetStats + Snapshot
// over a replayed trace produces a Result identical (field for field) to a
// single offline Run over the same records. Result is a pure value type,
// so == is an exact comparison.
func TestAdvanceSnapshotMatchesRun(t *testing.T) {
	recs := trace.Collect(snapshotGen(), 30_000)
	for _, mode := range []Mode{Baseline, POMTLB, SharedL2, TSB} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.Cores = 2
			cfg.WarmupRefs = 10_000
			cfg.MaxRefs = 40_000 // forces the replay to wrap, like a short upload
			ctx := context.Background()

			offline, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := offline.Run(ctx, trace.NewReplay(recs), "snapwl")
			if err != nil {
				t.Fatal(err)
			}

			inc, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inc.SetWorkload("snapwl")
			g := trace.NewReplay(recs)
			if err := inc.Advance(ctx, g, cfg.WarmupRefs); err != nil {
				t.Fatal(err)
			}
			inc.ResetStats()
			if err := inc.Advance(ctx, g, cfg.MaxRefs); err != nil {
				t.Fatal(err)
			}
			got := inc.Snapshot()
			if got != want {
				t.Errorf("incremental snapshot diverges from Run:\n got %+v\nwant %+v", got, want)
			}
			// Snapshot must be idempotent.
			if again := inc.Snapshot(); again != got {
				t.Errorf("second snapshot differs:\n got %+v\nwant %+v", again, got)
			}
		})
	}
}

// TestSnapshotDuringAdvance polls Snapshot from another goroutine while
// the record loop runs. Under -race this proves the latent counter race is
// actually fixed (before the stats mutex, any concurrent reader of s.res
// during Advance was unsynchronized); the monotonicity check additionally
// catches torn or rolled-back reads.
func TestSnapshotDuringAdvance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = POMTLB
	cfg.Cores = 2
	ctx := context.Background()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := snapshotGen()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		polls := 0
		for {
			select {
			case <-done:
				if polls == 0 {
					t.Error("poller never ran")
				}
				return
			default:
			}
			r := sys.Snapshot()
			if r.Records < last {
				t.Errorf("Records went backwards: %d -> %d", last, r.Records)
				return
			}
			if err := r.L1TLB.CheckConservation("l1tlb", r.L1TLB.Total()); err != nil {
				t.Error(err)
				return
			}
			last = r.Records
			polls++
		}
	}()

	if err := sys.Advance(ctx, g, 300_000); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	if got := sys.Snapshot().Records; got != 300_000 {
		t.Errorf("Records = %d, want 300000", got)
	}
}

// TestSnapshotAfterRunMatchesRun pins that Run leaves the accumulating
// counters as they were: a Snapshot taken right after it returns Run's
// own Result rather than every aggregated counter counted twice.
func TestSnapshotAfterRunMatchesRun(t *testing.T) {
	cfg := smallConfig(POMTLB)
	cfg.WarmupRefs, cfg.MaxRefs = 2000, 5000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), trace.NewUniform(gupsParams(cfg.Cores)), "gups")
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Snapshot(); got != res {
		t.Errorf("Snapshot after Run diverges: L1TLB %d/%d, Run's %d/%d\n got %+v\nwant %+v",
			got.L1TLB.Hits, got.L1TLB.Total(), res.L1TLB.Hits, res.L1TLB.Total(), got, res)
	}
}

// cancelAfter cancels its context once n records have been pulled, so a
// test can interrupt Run at a chosen point of the trace.
type cancelAfter struct {
	trace.Generator
	n      int
	cancel context.CancelFunc
}

func (g *cancelAfter) Next() trace.Record {
	if g.n--; g.n == 0 {
		g.cancel()
	}
	return g.Generator.Next()
}

// Fill passes every record through Next, so batched pulls count too.
func (g *cancelAfter) Fill(buf []trace.Record) int {
	for i := range buf {
		buf[i] = g.Next()
	}
	return len(buf)
}

// TestRunCancelled pins Run's cancellation contract in both windows: the
// error wraps context.Canceled and names how far the run got, and the
// partial Result still satisfies the accounting identities.
func TestRunCancelled(t *testing.T) {
	cfg := smallConfig(POMTLB)
	cfg.WarmupRefs, cfg.MaxRefs = 20_000, 20_000
	for _, tc := range []struct {
		name string
		at   int
	}{{"warmup", 5_000}, {"measurement", 30_000}} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			g := &cancelAfter{Generator: trace.NewUniform(gupsParams(cfg.Cores)), n: tc.at, cancel: cancel}
			res, err := sys.Run(ctx, g, "gups")
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "interrupted after") {
				t.Fatalf("err = %v, want an interruption wrapping context.Canceled", err)
			}
			if res.Records == 0 || res.Records >= uint64(cfg.MaxRefs) {
				t.Errorf("partial Result has %d records, want some but fewer than %d", res.Records, cfg.MaxRefs)
			}
			if err := res.CheckAccounting(); err != nil {
				t.Error(err)
			}
		})
	}
}
