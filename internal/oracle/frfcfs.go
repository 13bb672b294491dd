package oracle

import (
	"container/heap"

	"repro/internal/dram"
)

// This file provides an event-driven FR-FCFS (first-ready, first-come
// first-served) command scheduler — the policy Ramulator and real memory
// controllers use. The analytic dram.Channel answers per-access latency
// questions inline; the Scheduler replays a whole request stream through
// explicit ACT/PRE/CAS command timing and reports the same statistics, so
// the two models can be cross-validated (see TestSchedulerAgreesWithChannel).
// Like RefDRAM, it rederives bank, row and cycle timing from the raw
// configuration instead of reusing the channel's arithmetic.

// Request is one line-granular memory request presented to the scheduler.
type Request struct {
	// Arrival is the CPU-cycle time the request enters the controller.
	Arrival uint64
	// Addr is the line-aligned physical address.
	Addr uint64
	// Write marks write requests.
	Write bool
}

// Completion reports one serviced request.
type Completion struct {
	Request
	// Finish is the CPU-cycle time the data transfer completed.
	Finish uint64
	// RowBufferHit is true when no activate was needed.
	RowBufferHit bool
}

// Scheduler replays request streams under FR-FCFS.
type Scheduler struct {
	cfg dram.Config
	// QueueCap bounds the per-channel request queue (controller window).
	QueueCap int
}

// NewScheduler builds an FR-FCFS scheduler for a channel configuration.
func NewScheduler(cfg dram.Config) *Scheduler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Scheduler{cfg: cfg, QueueCap: 32}
}

// reqState tracks one in-flight request.
type reqState struct {
	Request
	bank int
	row  uint64
	seq  int // arrival order for FCFS tie-breaking
}

// reqHeap orders pending requests by arrival time (the stream may be
// presented out of order by a loosely-synchronized multi-core frontend).
type reqHeap []reqState

func (h reqHeap) Len() int      { return len(h) }
func (h reqHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h reqHeap) Less(i, j int) bool {
	if h[i].Arrival != h[j].Arrival {
		return h[i].Arrival < h[j].Arrival
	}
	return h[i].seq < h[j].seq
}
func (h *reqHeap) Push(x any) { *h = append(*h, x.(reqState)) }
func (h *reqHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run services every request and returns the completions in service order.
// The scheduler maintains a window of up to QueueCap pending requests; at
// each step it issues, among the requests whose bank is ready, first any
// row-buffer hit (first-ready) and otherwise the oldest request (FCFS).
func (s *Scheduler) Run(reqs []Request) []Completion {
	t := timingOf(s.cfg)
	type bankState struct {
		openRow   uint64
		hasOpen   bool
		busyUntil uint64
	}
	banks := make([]bankState, s.cfg.Banks)

	// Feed requests through an arrival-ordered heap.
	arrivals := make(reqHeap, 0, len(reqs))
	for i, r := range reqs {
		bi, row := t.locate(r.Addr)
		arrivals = append(arrivals, reqState{Request: r, bank: bi, row: row, seq: i})
	}
	heap.Init(&arrivals)

	var window []reqState
	var busBusy uint64
	var clock uint64
	out := make([]Completion, 0, len(reqs))

	burst := t.burst
	tCAS := t.cpu(s.cfg.TCAS)
	tRCD := t.cpu(s.cfg.TRCD)
	tRP := t.cpu(s.cfg.TRP)

	refill := func() {
		for len(window) < s.QueueCap && arrivals.Len() > 0 &&
			arrivals[0].Arrival <= clock {
			window = append(window, heap.Pop(&arrivals).(reqState))
		}
		// If the window is empty, jump to the next arrival.
		if len(window) == 0 && arrivals.Len() > 0 {
			if arrivals[0].Arrival > clock {
				clock = arrivals[0].Arrival
			}
			for len(window) < s.QueueCap && arrivals.Len() > 0 &&
				arrivals[0].Arrival <= clock {
				window = append(window, heap.Pop(&arrivals).(reqState))
			}
		}
	}

	for {
		refill()
		if len(window) == 0 {
			if arrivals.Len() == 0 {
				break
			}
			continue
		}
		// FR-FCFS pick: row hits first (oldest among them), else oldest.
		pick := -1
		for i, r := range window {
			b := &banks[r.bank]
			if b.hasOpen && b.openRow == r.row {
				if pick == -1 || window[i].seq < window[pick].seq {
					pick = i
				}
			}
		}
		hit := pick != -1
		if pick == -1 {
			for i := range window {
				if pick == -1 || window[i].seq < window[pick].seq {
					pick = i
				}
			}
		}
		r := window[pick]
		window = append(window[:pick], window[pick+1:]...)

		b := &banks[r.bank]
		start := max(clock, r.Arrival, b.busyUntil)
		var core uint64
		switch {
		case b.hasOpen && b.openRow == r.row:
			core = tCAS
		case !b.hasOpen:
			core = tRCD + tCAS
		default:
			core = tRP + tRCD + tCAS
		}
		dataReady := start + core
		busStart := max(dataReady, busBusy)
		finish := busStart + burst

		b.hasOpen = true
		b.openRow = r.row
		b.busyUntil = finish
		busBusy = finish
		if finish > clock {
			clock = finish
		}
		out = append(out, Completion{
			Request:      r.Request,
			Finish:       finish + s.cfg.CtrlOverhead,
			RowBufferHit: hit && b.openRow == r.row,
		})
	}
	return out
}

// RowBufferHitRate summarizes a completion stream.
func RowBufferHitRate(cs []Completion) float64 {
	if len(cs) == 0 {
		return 0
	}
	hits := 0
	for _, c := range cs {
		if c.RowBufferHit {
			hits++
		}
	}
	return float64(hits) / float64(len(cs))
}

// AvgServiceLatency returns the mean finish−arrival over a completion
// stream.
func AvgServiceLatency(cs []Completion) float64 {
	if len(cs) == 0 {
		return 0
	}
	var sum uint64
	for _, c := range cs {
		sum += c.Finish - c.Arrival
	}
	return float64(sum) / float64(len(cs))
}
