package oracle

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/dram"
)

// stream builds n sequential line requests spaced gap cycles apart.
func stream(n int, gap uint64) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{Arrival: uint64(i) * gap, Addr: uint64(i) * 64}
	}
	return out
}

// scatter builds n pseudo-random line requests spaced gap cycles apart.
func scatter(n int, gap uint64) []Request {
	out := make([]Request, n)
	x := uint64(0x2545F4914F6CDD1D)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = Request{Arrival: uint64(i) * gap, Addr: (x % (1 << 30)) &^ 63}
	}
	return out
}

func TestSchedulerServicesEverything(t *testing.T) {
	s := NewScheduler(dram.DieStacked())
	reqs := stream(1000, 50)
	cs := s.Run(reqs)
	if len(cs) != len(reqs) {
		t.Fatalf("completions = %d, want %d", len(cs), len(reqs))
	}
	for _, c := range cs {
		if c.Finish <= c.Arrival {
			t.Fatalf("completion before arrival: %+v", c)
		}
	}
}

func TestSchedulerRowLocality(t *testing.T) {
	s := NewScheduler(dram.DieStacked())
	seq := RowBufferHitRate(s.Run(stream(5000, 20)))
	rnd := RowBufferHitRate(s.Run(scatter(5000, 20)))
	if seq < 0.9 {
		t.Errorf("sequential FR-FCFS RBH = %f, want > 0.9", seq)
	}
	if rnd > 0.3 {
		t.Errorf("random FR-FCFS RBH = %f, want < 0.3", rnd)
	}
}

func TestSchedulerFirstReadyReordering(t *testing.T) {
	// Two requests to row A, one to row B between them, all arrived at
	// once: FR-FCFS should service both A-row requests back to back.
	cfg := dram.DieStacked()
	s := NewScheduler(cfg)
	rowStride := cfg.RowBytes * uint64(cfg.Banks) // same bank, next row
	reqs := []Request{
		{Arrival: 0, Addr: 0},
		{Arrival: 0, Addr: rowStride}, // row B
		{Arrival: 0, Addr: 64},        // row A again
	}
	cs := s.Run(reqs)
	if len(cs) != 3 {
		t.Fatal("missing completions")
	}
	// The second serviced request should be the row-A hit (addr 64).
	if cs[1].Addr != 64 || !cs[1].RowBufferHit {
		t.Errorf("FR-FCFS did not prioritize the row hit: serviced %#x (hit=%v)",
			cs[1].Addr, cs[1].RowBufferHit)
	}
}

// Cross-validation: under light load the analytic Channel and the
// event-driven scheduler must agree on row-buffer behaviour and land in
// the same latency band.
func TestSchedulerAgreesWithChannel(t *testing.T) {
	cfg := dram.DieStacked()
	cfg.TREFI = 0 // refresh timing differs between the two models
	for name, reqs := range map[string][]Request{
		"sequential": stream(4000, 200),
		"random":     scatter(4000, 200),
	} {
		s := NewScheduler(cfg)
		cs := s.Run(reqs)

		ch := dram.MustNew(cfg)
		var chHits, chTotal uint64
		var chLat float64
		for _, r := range reqs {
			res := ch.Access(r.Arrival, addr.HPA(r.Addr), r.Write)
			if res.RowBufferHit {
				chHits++
			}
			chTotal++
			chLat += float64(res.Latency)
		}
		chRBH := float64(chHits) / float64(chTotal)
		frRBH := RowBufferHitRate(cs)
		if diff := chRBH - frRBH; diff < -0.1 || diff > 0.1 {
			t.Errorf("%s: RBH disagrees: channel %.3f vs FR-FCFS %.3f", name, chRBH, frRBH)
		}
		chAvg := chLat / float64(chTotal)
		frAvg := AvgServiceLatency(cs)
		if frAvg < chAvg*0.5 || frAvg > chAvg*2 {
			t.Errorf("%s: latency bands diverge: channel %.1f vs FR-FCFS %.1f", name, chAvg, frAvg)
		}
	}
}

func TestSchedulerEmptyAndSummaries(t *testing.T) {
	s := NewScheduler(dram.DieStacked())
	if got := s.Run(nil); len(got) != 0 {
		t.Error("empty stream should yield no completions")
	}
	if RowBufferHitRate(nil) != 0 || AvgServiceLatency(nil) != 0 {
		t.Error("empty summaries should be zero")
	}
}

func TestNewSchedulerPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewScheduler(dram.Config{})
}
