package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/consolidation"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/experiments/sweep"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// sweepScale sizes the sweep-grid workload: one sweep per scheme over
// workloads × POM-TLB capacities at one seed.
type sweepScale struct {
	opts      experiments.Options
	pomMB     []uint64
	workloads []string
}

func sweepScaleFor(quick bool) sweepScale {
	sc := sweepScale{
		opts:      experiments.QuickOptions(),
		pomMB:     []uint64{8, 16},
		workloads: []string{"gups", "mcf", "consol-smoke"},
	}
	if quick {
		sc.opts.WarmupRefs, sc.opts.MaxRefs = 20_000, 10_000
		sc.pomMB = []uint64{16}
	}
	return sc
}

// base returns the sweep's base options at a benchmark seed. Sweep seeds
// must be positive, so the grid runs at seed+1.
func (sc sweepScale) base(seed uint64) experiments.Options {
	o := sc.opts
	o.Seed = seed + 1
	o.Workloads = sc.workloads
	return o
}

func (sc sweepScale) spec(mode core.Mode, seed uint64) sweep.Spec {
	return sweep.Spec{Schemes: []core.Mode{mode}, PomMB: sc.pomMB, Seeds: []uint64{seed + 1}}
}

// sweepRun is one scheme's sweep.
type sweepRun struct {
	setup, wall time.Duration
	cells       int
	failed      int
	records     uint64
	csvSum      string
	results     []core.Result
}

func runSweep(ctx context.Context, e *env) (*measurement, error) {
	sc := sweepScaleFor(e.quick)
	m := newMeasurement()
	m.collect = true
	m.gens = func() ([]trace.Generator, error) { return sweepGenerators(sc, e.seed) }
	table, err := loadDigests()
	if err != nil {
		return nil, err
	}
	modes := core.Modes()
	firstSum := map[core.Mode]string{}
	err = e.rounds(ctx, math.MaxInt, func(ctx context.Context, r int, traced bool, parent int) error {
		for k := range modes {
			mode := modes[(r+k)%len(modes)]
			run, err := sweepOnce(ctx, e, sc, mode, parent)
			if err != nil {
				return fmt.Errorf("%s sweep: %w", mode, err)
			}
			m.op(mode, run.records, run.wall, traced)
			// The sweep's set-up is file-system work, mostly the journal's
			// fsync, which the reference kernel does not model: it is
			// reported as measured.
			m.addSetup(run.setup, 1)
			m.attempted += run.cells
			m.failed += run.failed
			if r == 0 {
				for _, res := range run.results {
					m.sim[mode].add(res)
				}
			}
			// Every sweep of a scheme must write the same CSV, and the
			// first must match the committed one when the seed has it.
			want, ok := firstSum[mode]
			if !ok {
				firstSum[mode] = run.csvSum
				want, ok = table.want(digestKey("sweep-grid", e.quick), e.seed, mode)
			}
			if ok && run.csvSum != want {
				m.failed += run.cells - run.failed
				fmt.Fprintf(os.Stderr, "sweep-grid %s round %d: CSV sha256 %.12s, want %.12s\n", mode, r, run.csvSum, want)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// sweepOnce runs one scheme's sweep on two shards with a fsynced journal
// and a streamed CSV in a fresh directory. Set-up is creating the
// directory, journal and CSV file; the sweep itself is timed apart.
func sweepOnce(ctx context.Context, e *env, sc sweepScale, mode core.Mode, parent int) (sweepRun, error) {
	var out sweepRun
	id := e.spans.begin("sweep/"+string(mode), parent)
	defer e.spans.end(id)
	err := e.do(ctx, mode, "window", func(ctx context.Context) error {
		t0 := time.Now()
		dir, err := os.MkdirTemp(e.workDir, "sweep-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		base, spec := sc.base(e.seed), sc.spec(mode, e.seed)
		journal, err := experiments.OpenSweepJournal(filepath.Join(dir, "journal"),
			experiments.SweepFingerprint(base, spec.Canonical()))
		if err != nil {
			return err
		}
		defer journal.Close()
		csvFile, err := os.Create(filepath.Join(dir, "cells.csv"))
		if err != nil {
			return err
		}
		defer csvFile.Close()
		sum := sha256.New()
		out.setup = time.Since(t0)

		t1 := time.Now()
		rep, err := sweep.Run(ctx, sweep.Config{
			Base: base, Spec: spec, Shards: 2, Journal: journal,
			CSV: io.MultiWriter(csvFile, sum), Collect: true,
		})
		out.wall = time.Since(t1)
		if err != nil {
			return err
		}
		out.csvSum = hex.EncodeToString(sum.Sum(nil))
		out.cells = rep.Total
		out.failed = len(rep.Quarantined) + rep.Abandoned()
		if rep.JournalErrs > 0 {
			out.failed = rep.Total
			fmt.Fprintf(os.Stderr, "sweep-grid %s: %d journal errors\n", mode, rep.JournalErrs)
		}
		for _, q := range rep.Quarantined {
			fmt.Fprintf(os.Stderr, "sweep-grid %s: quarantined %s: %s\n", mode, q.Key, q.Error)
		}
		perCell := uint64(base.WarmupRefs + base.MaxRefs)
		for _, cr := range rep.Results {
			out.records += perCell
			out.results = append(out.results, cr.Res)
			if err := cr.Res.CheckAccounting(); err != nil && out.failed < out.cells {
				out.failed++
				fmt.Fprintf(os.Stderr, "sweep-grid %s: %v\n", cr.Cell.Key(), err)
			}
		}
		return nil
	})
	return out, err
}

// sweepGenerators builds fresh copies of the grid's workload generators.
func sweepGenerators(sc sweepScale, seed uint64) ([]trace.Generator, error) {
	o := sc.base(seed)
	var gens []trace.Generator
	for _, name := range sc.workloads {
		if p, ok := workloads.ByName(name); ok {
			gens = append(gens, p.Generator(o.Cores, o.Seed))
			continue
		}
		preset, ok := workloads.ConsolidationByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown sweep workload %q", name)
		}
		scn, err := consolidation.New(consolidation.Config{Preset: preset, Cores: o.Cores, Seed: o.Seed,
			TotalRecords: uint64(o.WarmupRefs + o.MaxRefs)})
		if err != nil {
			return nil, err
		}
		gens = append(gens, scn.Gen)
	}
	return gens, nil
}
