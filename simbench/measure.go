package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// env is one benchmark run's settings and tracing state.
type env struct {
	seed    uint64
	budget  time.Duration // how long the measured rounds run
	quick   bool
	workDir string    // where sweeps keep their journals
	prof    *profiler // nil when untraced
	spans   *spans    // nil when untraced
}

// measurement is what one workload run collects.
type measurement struct {
	// rates holds each scheme's throughput per measured operation in
	// rec/s, normalised to the reference kernel's nominal speed; wall
	// holds the same as measured. traced holds the measured throughput of
	// operations run under the profiler, which are not normalised.
	rates, wall, traced map[core.Mode][]float64
	// ref is the reference kernel and refRates its speed in steps/s at
	// each run.
	ref      *reference
	refRates []float64
	// collect runs a garbage collection after every operation, before the
	// reference run. A sweep or a session pair leaves much garbage behind,
	// and a collection marking it beside the kernel would slow the kernel;
	// each is a separate job, which may start from a clean heap. Loop
	// windows get no collection between them, as users get none.
	collect bool
	// setup holds every set-up the run made, in seconds: one per loop
	// system, per sweep and per daemon session pair.
	setup []float64
	// attempted and failed count operations; what an operation is
	// depends on the workload.
	attempted, failed int
	sim               map[core.Mode]*simCounts
	// tracedRecords and tracedWall cover the operations run under the
	// profiler.
	tracedRecords uint64
	tracedWall    time.Duration
	// gens builds fresh copies of the workload's generators, timed for
	// gen.ns_per_rec.
	gens func() ([]trace.Generator, error)
	// Daemon client timings in ms, and the POSTs made under the profiler.
	creates, posts []float64
	tracedPosts    int
	// heapLive is the largest heap a garbage collection found live, as
	// seen after each of the first heapOps operations; ops counts them.
	heapLive uint64
	ops      int
}

// heapOps is how many operations heap_live_mb watches: the first three
// rounds, which every run makes. Watching later rounds too would tie the
// figure to how many rounds the machine's speed allowed, because the loop
// workloads keep demand-mapping pages.
var heapOps = 3 * len(core.Modes())

func newMeasurement() *measurement {
	m := &measurement{
		rates:  map[core.Mode][]float64{},
		wall:   map[core.Mode][]float64{},
		traced: map[core.Mode][]float64{},
		sim:    map[core.Mode]*simCounts{},
		ref:    newReference(),
	}
	for _, mode := range core.Modes() {
		m.sim[mode] = &simCounts{}
	}
	return m
}

// scale runs the reference kernel and returns the factor that states a
// throughput measured just before at the kernel's nominal speed.
func (m *measurement) scale() float64 {
	r := m.ref.rate()
	m.refRates = append(m.refRates, r)
	return refNominal / r
}

// op records one measured operation that simulated records in d. An
// unprofiled operation is normalised by a reference run made right after
// it; op returns that run's scale (1 for a profiled operation), which the
// operation's set-up shares.
func (m *measurement) op(mode core.Mode, records uint64, d time.Duration, traced bool) float64 {
	if m.ops < heapOps {
		m.heapLive = max(m.heapLive, heapLiveBytes())
	}
	m.ops++
	if m.collect {
		runtime.GC()
	}
	rate := float64(records) / d.Seconds()
	if traced {
		m.traced[mode] = append(m.traced[mode], rate)
		m.tracedRecords += records
		m.tracedWall += d
		return 1
	}
	f := m.scale()
	m.wall[mode] = append(m.wall[mode], rate)
	m.rates[mode] = append(m.rates[mode], rate*f)
	return f
}

// addSetup records one set-up that took d, normalised by scale f (1 for a
// set-up the kernel does not model).
func (m *measurement) addSetup(d time.Duration, f float64) {
	m.setup = append(m.setup, d.Seconds()/f)
}

// rounds runs measured rounds until the time budget is spent: at least
// three (four when traced, so that both halves have two), at most
// maxRounds. When traced, rounds run without and with the CPU profiler in
// the order without, with, with, without, repeated, so that a trend over
// the run (demand mapping settling, the machine's speed drifting) favours
// neither half; comparing the halves gives trace.overhead_pct. round
// receives the id of the round's span, the parent of the spans it
// records.
func (e *env) rounds(ctx context.Context, maxRounds int, round func(ctx context.Context, r int, traced bool, span int) error) error {
	minRounds := 3
	if e.prof != nil {
		minRounds = 4
	}
	start := time.Now()
	for r := 0; r < maxRounds && (r < minRounds || time.Since(start) < e.budget); r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		traced := e.prof != nil && (r%4 == 1 || r%4 == 2)
		if traced {
			if err := e.prof.start(); err != nil {
				return err
			}
		}
		id := e.spans.begin(fmt.Sprintf("round/%d", r), 0)
		err := round(ctx, r, traced, id)
		e.spans.end(id)
		if traced {
			e.prof.stop()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// do runs fn under the scheme and phase profile labels when tracing;
// goroutines fn starts inherit the labels.
func (e *env) do(ctx context.Context, mode core.Mode, phase string, fn func(ctx context.Context) error) error {
	if e.prof == nil {
		return fn(ctx)
	}
	var err error
	pprof.Do(ctx, pprof.Labels("scheme", string(mode), "phase", phase), func(ctx context.Context) {
		err = fn(ctx)
	})
	return err
}

// endToEnd turns a measurement into the end-to-end metrics: the geometric
// mean over schemes of each scheme's median normalised operation
// throughput, the median set-up, and the peak live heap.
func endToEnd(m *measurement) []metric {
	return valuesFor(endToEndDefs(), map[string]float64{
		"rps":          geomean(schemeMedians(m.rates)),
		"setup_s":      median(m.setup),
		"heap_live_mb": float64(m.heapLive) / (1 << 20),
	})
}

// spreadNotes describes each scheme's unprofiled, normalised operation
// throughputs by count and quartiles, and the reference kernel's speed
// and the measured throughput: how steady the run and the machine were.
func spreadNotes(m *measurement) []string {
	var out []string
	for _, mode := range core.Modes() {
		q1, q2, q3 := quartiles(m.rates[mode])
		out = append(out, fmt.Sprintf("%s: %d ops, rec/s quartiles %.4g %.4g %.4g",
			mode, len(m.rates[mode]), q1, q2, q3))
	}
	q1, q2, q3 := quartiles(m.refRates)
	return append(out,
		fmt.Sprintf("reference kernel: %d runs, steps/s quartiles %.4g %.4g %.4g", len(m.refRates), q1, q2, q3),
		fmt.Sprintf("wall rps %.6g", geomean(schemeMedians(m.wall))))
}

// schemeMedians returns each scheme's median throughput, in scheme
// order.
func schemeMedians(rates map[core.Mode][]float64) []float64 {
	var out []float64
	for _, mode := range core.Modes() {
		out = append(out, median(rates[mode]))
	}
	return out
}

// heapLiveBytes returns the heap the last completed garbage collection
// marked live.
func heapLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// simCounts accumulates one scheme's simulated statistics across the
// results a workload produces.
type simCounts struct {
	records, l2miss, walks, cacheAcc, dramAcc, penalty uint64
}

func (c *simCounts) add(r core.Result) {
	c.records += r.Records
	c.l2miss += r.L2TLB.Misses
	c.walks += r.Walk.Walks2D + r.Walk.WalksNative
	for _, hm := range r.L2Cache.Access {
		c.cacheAcc += hm.Hits + hm.Misses
	}
	for _, hm := range r.L3Cache.Access {
		c.cacheAcc += hm.Hits + hm.Misses
	}
	c.dramAcc += r.DDRStats.Accesses + r.POMDRAMStats.Accesses + r.L4DRAMStats.Accesses + r.DCacheDRAM.Accesses
	c.penalty += r.PenaltyCycles
}
