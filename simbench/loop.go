package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/consolidation"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// loopSpec is one record-loop workload: one system per registered
// scheme, each warmed on its own copy of the input and then driven
// round-robin in fixed-size windows from the main goroutine.
type loopSpec struct {
	name   string
	warmup int
	window int
	// maxRounds caps the measured rounds; the consolidation scenario's
	// event schedule is built to cover exactly that many.
	maxRounds int
	// input builds one scheme's generator, scenario events and VM count
	// for a trace of total records.
	input func(seed, total uint64) (trace.Generator, []core.Event, int, error)
}

// loopSpecFor returns the named loop workload at full or quick scale.
func loopSpecFor(name string, quick bool) (loopSpec, bool) {
	spec := loopSpec{name: name, warmup: 400_000, maxRounds: 200}
	switch name {
	case "loop-uniform":
		// The perf trajectory's geometry: 16 MB uniform footprint, a
		// quarter of it on 2 MB pages, no spatial runs.
		spec.window = 200_000
		spec.input = func(seed, _ uint64) (trace.Generator, []core.Event, int, error) {
			return uniformTrace(seed, loopCores), nil, 1, nil
		}
	case "loop-zipf":
		spec.window = 250_000
		spec.input = func(seed, _ uint64) (trace.Generator, []core.Event, int, error) {
			p, ok := workloads.ByName("graph500")
			if !ok {
				return nil, nil, 0, fmt.Errorf("graph500 profile missing")
			}
			return p.Generator(loopCores, seed), nil, 1, nil
		}
	case "loop-consol":
		spec.window = 125_000
		spec.maxRounds = 40
		spec.input = func(seed, total uint64) (trace.Generator, []core.Event, int, error) {
			preset, ok := workloads.ConsolidationByName("consol-churn")
			if !ok {
				return nil, nil, 0, fmt.Errorf("consol-churn preset missing")
			}
			scn, err := consolidation.New(consolidation.Config{
				Preset: preset, Cores: loopCores, Seed: seed, TotalRecords: total, Phases: 3,
			})
			if err != nil {
				return nil, nil, 0, err
			}
			return scn.Gen, scn.Events, scn.Guests, nil
		}
	default:
		return loopSpec{}, false
	}
	if quick {
		spec.warmup, spec.window, spec.maxRounds = 40_000, 20_000, 6
	}
	return spec, true
}

// loopCores is every loop workload's simulated core count.
const loopCores = 4

// uniformTrace is the input of loop-uniform and daemon-ingest: the perf
// trajectory's trace (perf.DefaultConfig's footprint and 2 MB-page share,
// uniform over it with no spatial runs) for the given seed and cores.
func uniformTrace(seed uint64, cores int) trace.Generator {
	geo := perf.DefaultConfig()
	return trace.NewUniform(trace.Params{Seed: seed, FootprintBytes: geo.FootprintBytes,
		LargeFrac: geo.LargeFrac, Threads: cores, MeanGap: 4, WriteFrac: 0.3})
}

// total is the trace length every scheme's input must cover.
func (s loopSpec) total() uint64 { return uint64(s.warmup + s.maxRounds*s.window) }

// loopScheme is one scheme's system and its windows so far.
type loopScheme struct {
	mode    core.Mode
	sys     *core.System
	gen     trace.Generator
	windows int
	first   core.Result // statistics of the first window alone
}

// build constructs and warms one scheme's system; statistics are reset
// afterwards, so the first window's snapshot covers that window alone.
func (s loopSpec) build(ctx context.Context, mode core.Mode, seed uint64) (*loopScheme, error) {
	gen, events, vms, err := s.input(seed, s.total())
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.Cores = loopCores
	cfg.VMs = vms
	cfg.Virtualized = true
	cfg.Seed = seed
	cfg.WarmupRefs = 0
	cfg.MaxRefs = s.window
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	sys.SetWorkload(s.name)
	sys.SetEvents(events)
	if err := sys.Advance(ctx, gen, s.warmup); err != nil {
		return nil, fmt.Errorf("%s warmup: %w", mode, err)
	}
	sys.ResetStats()
	return &loopScheme{mode: mode, sys: sys, gen: gen}, nil
}

func runLoop(ctx context.Context, e *env, spec loopSpec) (*measurement, error) {
	m := newMeasurement()
	m.gens = func() ([]trace.Generator, error) {
		g, _, _, err := spec.input(e.seed, spec.total())
		return []trace.Generator{g}, err
	}
	schemes, err := setupLoop(ctx, e, spec, m)
	if err != nil {
		return nil, err
	}
	// One collection after set-up; none between windows, as users get
	// none either.
	runtime.GC()

	err = e.rounds(ctx, spec.maxRounds, func(ctx context.Context, r int, traced bool, parent int) error {
		// Each round starts at the next scheme, so no scheme always runs
		// right after the same neighbour.
		for k := range schemes {
			ls := schemes[(r+k)%len(schemes)]
			var d time.Duration
			id := e.spans.begin("window/"+string(ls.mode), parent)
			err := e.do(ctx, ls.mode, "window", func(ctx context.Context) error {
				t0 := time.Now()
				err := ls.sys.Advance(ctx, ls.gen, spec.window)
				d = time.Since(t0)
				return err
			})
			e.spans.end(id)
			if err != nil {
				return fmt.Errorf("%s window %d: %w", ls.mode, r, err)
			}
			m.op(ls.mode, uint64(spec.window), d, traced)
			ls.windows++
			if r == 0 {
				ls.first = ls.sys.Snapshot()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	table, err := loadDigests()
	if err != nil {
		return nil, err
	}
	for _, ls := range schemes {
		final := ls.sys.Snapshot()
		m.sim[ls.mode].add(final)
		tallyScheme(m, spec.name, ls.mode, ls.windows, verifyLoop(spec, e, table, ls, final))
	}
	return m, nil
}

// setupLoop builds and warms every scheme's system, timing each set-up.
// Under tracing set-up is profiled as a segment of its own.
func setupLoop(ctx context.Context, e *env, spec loopSpec, m *measurement) ([]*loopScheme, error) {
	if e.prof != nil {
		if err := e.prof.start(); err != nil {
			return nil, err
		}
		defer e.prof.stop()
	}
	schemes := make([]*loopScheme, len(core.Modes()))
	for i, mode := range core.Modes() {
		id := e.spans.begin("setup/"+string(mode), 0)
		t0 := time.Now()
		err := e.do(ctx, mode, "setup", func(ctx context.Context) error {
			var err error
			schemes[i], err = spec.build(ctx, mode, e.seed)
			return err
		})
		d := time.Since(t0)
		e.spans.end(id)
		if err != nil {
			return nil, err
		}
		// A traced run reports no set-up time, and keeps the reference
		// kernel out of its profile.
		if e.prof == nil {
			m.addSetup(d, m.scale())
		}
	}
	return schemes, nil
}

// verifyLoop checks one scheme's statistics: the accounting identities
// and record count of the final snapshot, and the first window's digest
// against the committed one when the seed has an entry.
func verifyLoop(spec loopSpec, e *env, table digestTable, ls *loopScheme, final core.Result) error {
	if err := final.CheckAccounting(); err != nil {
		return err
	}
	if want := uint64(ls.windows * spec.window); final.Records != want {
		return fmt.Errorf("simulated %d records, want %d", final.Records, want)
	}
	if want, ok := table.want(digestKey(spec.name, e.quick), e.seed, ls.mode); ok {
		if got := digestResult(ls.first); got != want {
			return fmt.Errorf("first-window digest %.12s, committed %.12s", got, want)
		}
	}
	return nil
}

// tallyScheme counts one scheme's operations; when its verification
// failed, every one of them fails.
func tallyScheme(m *measurement, workload string, mode core.Mode, ops int, err error) {
	m.attempted += ops
	if err != nil {
		m.failed += ops
		fmt.Fprintf(os.Stderr, "%s %s: %v\n", workload, mode, err)
	}
}

// digestKey names a workload's entry in the digest table.
func digestKey(workload string, quick bool) string {
	if quick {
		return workload + ".quick"
	}
	return workload
}
