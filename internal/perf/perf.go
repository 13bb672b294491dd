// Package perf is the simulator's performance-trajectory harness: it
// measures how fast the simulator itself runs — simulated records per
// wall-clock second, wall nanoseconds per translation, and heap
// allocations per record — for each translation scheme, and serializes
// the measurements into a schema-versioned trajectory file
// (`BENCH_<date>.json` at the repo root). Committed trajectory files are
// a log of past measurements; Compare diffs two trajectories and flags
// regressions beyond a tolerance. Performance claims are measured with
// the same-machine benchmark in simbench instead.
//
// Every record the simulator consumes is exactly one translation request
// (plus its data access), so ns/translation is wall time per record over
// the steady-state measurement window. Steady state means the trace's
// whole footprint has been demand-mapped and the scheme's structures are
// warm, so the record loop performs no heap allocation; the harness
// reaches it by advancing the system through a warmup window before
// timing anything.
package perf

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// SchemaVersion is the trajectory file schema this package reads and
// writes. Bump it when a field changes meaning; Load rejects files whose
// version it does not understand.
const SchemaVersion = 1

// Schemes is the trajectory's scheme matrix: every registered scheme, in
// registration order. A scheme registered after a baseline was recorded
// is reported as ungated by Compare; only schemes *missing* from the new
// trajectory fail the comparison.
var Schemes = core.Modes()

// Config sizes one trajectory measurement.
type Config struct {
	// Cores is the simulated core count.
	Cores int `json:"cores"`
	// FootprintBytes is the synthetic workload footprint. It must be
	// small enough that WarmupRefs demand-maps every page (steady state)
	// and large enough to overflow the SRAM TLBs so the deep translation
	// paths are exercised.
	FootprintBytes uint64 `json:"footprint_bytes"`
	// LargeFrac is the 2 MB-page share of the footprint.
	LargeFrac float64 `json:"large_frac"`
	// WarmupRefs is the unmeasured steady-state ramp.
	WarmupRefs int `json:"warmup_refs"`
	// MeasureRefs is the size of each timed window.
	MeasureRefs int `json:"measure_refs"`
	// Repeats is how many timed windows run per scheme; the fastest
	// window is reported (standard best-of-N benchmarking) while
	// allocations report the *worst* window, conservatively.
	Repeats int `json:"repeats"`
	// Seed feeds the deterministic trace generator.
	Seed uint64 `json:"seed"`
	// Virtualized selects 2D nested translation.
	Virtualized bool `json:"virtualized"`
}

// DefaultConfig returns the canonical trajectory geometry: 4 cores,
// 16 MB uniform-random footprint (4096 small pages — ~2.7× the combined
// L2 TLB capacity, so post-TLB paths dominate), fully mapped during
// warmup.
func DefaultConfig() Config {
	return Config{
		Cores:          4,
		FootprintBytes: 16 << 20,
		LargeFrac:      0.25,
		WarmupRefs:     400_000,
		MeasureRefs:    1_000_000,
		Repeats:        3,
		Seed:           42,
		Virtualized:    true,
	}
}

// QuickConfig returns a shrunk geometry for CI smoke runs and tests.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Cores = 2
	c.FootprintBytes = 4 << 20
	c.WarmupRefs = 120_000
	c.MeasureRefs = 150_000
	c.Repeats = 2
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("perf: cores must be positive")
	case c.WarmupRefs <= 0 || c.MeasureRefs <= 0:
		return fmt.Errorf("perf: warmup and measure windows must be positive")
	case c.Repeats <= 0:
		return fmt.Errorf("perf: repeats must be positive")
	case c.FootprintBytes < 1<<20:
		return fmt.Errorf("perf: footprint %d below 1 MB", c.FootprintBytes)
	}
	return nil
}

// SchemeResult is one scheme's measured steady-state record-loop cost.
type SchemeResult struct {
	// Scheme is the core.Mode name ("baseline", "pom-tlb", ...).
	Scheme string `json:"scheme"`
	// RecordsPerSec is simulated records per wall-clock second over the
	// fastest measurement window.
	RecordsPerSec float64 `json:"records_per_sec"`
	// NsPerTranslation is wall nanoseconds per record (one record = one
	// translation request) over the same window.
	NsPerTranslation float64 `json:"ns_per_translation"`
	// AllocsPerRecord is heap allocations per record over the *worst*
	// window — 0 in steady state with self-check off.
	AllocsPerRecord float64 `json:"allocs_per_record"`
	// BytesPerRecord is heap bytes allocated per record over the worst
	// window.
	BytesPerRecord float64 `json:"bytes_per_record"`
	// Records is the per-window record count.
	Records uint64 `json:"records"`
}

// Trajectory is one dated measurement of every scheme, the unit the
// BENCH_<date>.json files serialize.
type Trajectory struct {
	SchemaVersion int    `json:"schema_version"`
	Date          string `json:"date"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	Config        Config `json:"config"`

	Schemes []SchemeResult `json:"schemes"`
}

// Scheme returns the named scheme's result, if present.
func (t *Trajectory) Scheme(name string) (SchemeResult, bool) {
	for _, s := range t.Schemes {
		if s.Scheme == name {
			return s, true
		}
	}
	return SchemeResult{}, false
}

// generator builds the trajectory's canonical workload: uniform random
// over the footprint with no run locality, so most records exercise the
// post-L2-TLB-miss path each scheme implements differently.
func (c Config) generator() trace.Generator {
	return trace.NewUniform(trace.Params{
		Seed:           c.Seed,
		FootprintBytes: c.FootprintBytes,
		LargeFrac:      c.LargeFrac,
		Threads:        c.Cores,
		MeanGap:        4,
		WriteFrac:      0.3,
	})
}

// coreConfig materializes the simulator configuration for one scheme.
func (c Config) coreConfig(mode core.Mode) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.Cores = c.Cores
	cfg.VMs = 1
	cfg.Virtualized = c.Virtualized
	cfg.Seed = c.Seed
	cfg.WarmupRefs = 0
	cfg.MaxRefs = c.MeasureRefs
	return cfg
}

// MeasureScheme measures one scheme's steady-state record loop: warm the
// system (demand-map the whole footprint, fill the scheme's structures),
// then time Repeats windows of MeasureRefs records each.
func MeasureScheme(ctx context.Context, cfg Config, mode core.Mode) (SchemeResult, error) {
	if err := cfg.Validate(); err != nil {
		return SchemeResult{}, err
	}
	sys, err := core.NewSystem(cfg.coreConfig(mode))
	if err != nil {
		return SchemeResult{}, fmt.Errorf("perf: %s: %w", mode, err)
	}
	gen := cfg.generator()
	if err := sys.Advance(ctx, gen, cfg.WarmupRefs); err != nil {
		return SchemeResult{}, fmt.Errorf("perf: %s warmup: %w", mode, err)
	}

	out := SchemeResult{Scheme: mode.String(), Records: uint64(cfg.MeasureRefs)}
	var bestNs float64
	var m0, m1 runtime.MemStats
	for r := 0; r < cfg.Repeats; r++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := sys.Advance(ctx, gen, cfg.MeasureRefs); err != nil {
			return SchemeResult{}, fmt.Errorf("perf: %s window %d: %w", mode, r, err)
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)

		ns := float64(elapsed.Nanoseconds())
		if r == 0 || ns < bestNs {
			bestNs = ns
		}
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(cfg.MeasureRefs)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(cfg.MeasureRefs)
		if allocs > out.AllocsPerRecord {
			out.AllocsPerRecord = allocs
		}
		if bytes > out.BytesPerRecord {
			out.BytesPerRecord = bytes
		}
	}
	out.NsPerTranslation = bestNs / float64(cfg.MeasureRefs)
	out.RecordsPerSec = float64(cfg.MeasureRefs) / (bestNs / 1e9)
	return out, nil
}

// Measure runs the full scheme matrix and assembles the trajectory.
// date stamps the measurement (YYYY-MM-DD).
func Measure(ctx context.Context, cfg Config, date string) (*Trajectory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Trajectory{
		SchemaVersion: SchemaVersion,
		Date:          date,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Config:        cfg,
	}
	for _, mode := range Schemes {
		res, err := MeasureScheme(ctx, cfg, mode)
		if err != nil {
			return nil, err
		}
		t.Schemes = append(t.Schemes, res)
	}
	return t, nil
}
