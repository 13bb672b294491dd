// Package perfmodel implements the paper's linear additive performance
// model (Section 3.2–3.3, Equations 2–5).
//
// The paper measures each workload's baseline on real hardware: total
// instructions I, total cycles C, L2 TLB miss count M and total miss
// penalty P (perf counters). From these it derives the ideal cycles
//
//	C_ideal = C_total − P_total                            (2)
//	P_avg   = P_total / M_total                            (3)
//
// and evaluates a scheme by substituting its simulated average penalty:
//
//	C_scheme = C_ideal + M_total × P_scheme                (4)
//	IPC      = I_total / C_scheme                          (5)
//
// Dividing (4) by C_total shows only two measured quantities matter for
// the speedup: the translation overhead fraction f = P_total/C_total and
// the measured baseline penalty P_base = P_avg:
//
//	speedup = C_total / C_scheme = 1 / (1 − f + f × P_scheme/P_base)
//
// which is how this package combines Table 2's published numbers with the
// simulator's per-scheme penalties. The tests spell Equations 2–4 out over
// absolute counts and check the closed form against them.
package perfmodel

import (
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Input is one workload's model inputs.
type Input struct {
	// OverheadFrac is f: the fraction of baseline execution time spent in
	// translation after L2 TLB misses (Table 2 "Overhead Virtual %"/100,
	// or the native column for bare-metal runs).
	OverheadFrac float64
	// BaselinePenalty is the measured baseline cycles per L2 TLB miss.
	BaselinePenalty float64
	// SchemePenalty is the simulated cycles per L2 TLB miss under the
	// evaluated scheme.
	SchemePenalty float64
}

// Speedup returns C_baseline / C_scheme for the input. The input must
// hold OverheadFrac in [0, 1) and a positive BaselinePenalty, as every
// FromProfile input of a Table 2 row does.
func Speedup(in Input) float64 {
	return 1 / ((1 - in.OverheadFrac) + in.OverheadFrac*in.SchemePenalty/in.BaselinePenalty)
}

// ImprovementPct returns the percentage performance improvement
// (Figure 8's y-axis): 100 × (speedup − 1).
func ImprovementPct(in Input) float64 {
	return 100 * (Speedup(in) - 1)
}

// FromProfile builds the model input for a run of a Table 2 workload
// with a simulated scheme penalty: the virtualized or the native columns
// by run kind, and the penalty capped at that measured baseline. A
// scheme cannot be worse than running every miss at the measured
// baseline cost, so a simulated penalty above it (possible when the
// synthetic substrate is harsher than the real machine) reads as "no
// gain", matching how the paper reports Figure 8.
func FromProfile(p workloads.Profile, virtualized bool, schemePenalty float64) Input {
	in := Input{OverheadFrac: p.OverheadVirtPct / 100, BaselinePenalty: p.CyclesPerMissVirt}
	if !virtualized {
		in = Input{OverheadFrac: p.OverheadNativePct / 100, BaselinePenalty: p.CyclesPerMissNative}
	}
	in.SchemePenalty = min(schemePenalty, in.BaselinePenalty)
	return in
}

// GeomeanImprovementPct aggregates per-workload speedups the way the paper
// reports its averages: geometric mean of the speedups, expressed as a
// percentage improvement.
func GeomeanImprovementPct(speedups []float64) float64 {
	return 100 * (stats.Geomean(speedups) - 1)
}
