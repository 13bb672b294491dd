package experiments

import (
	"context"
	"strconv"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/workloads"
)

// ablationWorkloads is the TLB-sensitive subset used for the Section 4.6
// sweeps (running all 15 at every design point would be redundant — the
// paper likewise reports the sweeps as aggregates).
var ablationWorkloads = []string{"mcf", "gups", "graph500"}

// AblationPoint is one design point of a sweep.
type AblationPoint struct {
	Label string
	// MeanImprovementPct is the geomean improvement over the subset.
	MeanImprovementPct float64
	// MeanPenalty is the subset's mean simulated P_avg.
	MeanPenalty float64
	// WalkElimination is the subset's mean walk-elimination rate.
	WalkElimination float64
}

// sweep evaluates POM-TLB over the ablation subset for each option
// variant and aggregates. Failed cells drop out of a point's aggregate
// (a point with no surviving cells is dropped entirely); every failure
// is reported, labelled with its point, through the returned
// *CampaignError.
func sweep(ctx context.Context, base Options, labels []string, variant func(Options, int) Options) ([]AblationPoint, error) {
	var fs failureSet
	var out []AblationPoint
	for i, label := range labels {
		r := variantRunner(variant(base, i), label)
		_ = r.Prefetch(ctx, ablationWorkloads, []core.Mode{core.POMTLB})
		var speedups []float64
		var penSum, elimSum float64
		n := 0
		for _, name := range ablationWorkloads {
			res, err := r.Result(ctx, name, core.POMTLB)
			if err != nil {
				fs.record(err, name, core.POMTLB)
				continue
			}
			p, _ := workloads.ByName(name)
			pen := res.AvgPenalty()
			penSum += pen
			elimSum += res.WalkEliminationRate()
			imp, err := perfmodel.ImprovementPct(perfmodel.FromProfile(p, true, pen))
			if err != nil {
				fs.record(r.fail(err, name, core.POMTLB), name, core.POMTLB)
				continue
			}
			speedups = append(speedups, 1+imp/100)
			n++
		}
		if n == 0 {
			continue
		}
		out = append(out, AblationPoint{
			Label:              label,
			MeanImprovementPct: perfmodel.GeomeanImprovementPct(speedups),
			MeanPenalty:        penSum / float64(n),
			WalkElimination:    elimSum / float64(n),
		})
	}
	return out, fs.err()
}

// AblationCapacity reproduces §4.6: POM-TLB capacity 8/16/32 MB changes
// the improvement by under a percent.
func AblationCapacity(ctx context.Context, base Options) ([]AblationPoint, error) {
	sizes := []uint64{8 << 20, 16 << 20, 32 << 20}
	return sweep(ctx, base, []string{"8MB", "16MB", "32MB"}, func(o Options, i int) Options {
		o.POM.SizeBytes = sizes[i]
		return o
	})
}

// AblationCores reproduces §4.6: core counts 4/8/16 leave the improvement
// approximately unchanged (the POM-TLB is large enough for all of them).
func AblationCores(ctx context.Context, base Options) ([]AblationPoint, error) {
	cores := []int{4, 8, 16}
	return sweep(ctx, base, []string{"4 cores", "8 cores", "16 cores"}, func(o Options, i int) Options {
		o.Cores = cores[i]
		return o
	})
}

// AblationAssociativity sweeps the POM-TLB associativity (the paper: below
// 4 ways, conflict misses rise sharply; 4 ways fits exactly one burst).
func AblationAssociativity(ctx context.Context, base Options) ([]AblationPoint, error) {
	ways := []int{1, 2, 4, 8}
	return sweep(ctx, base, []string{"1-way", "2-way", "4-way", "8-way"}, func(o Options, i int) Options {
		o.POM.Ways = ways[i]
		return o
	})
}

// AblationBypass compares the bypass predictor against forcing every
// access through the cache probes.
func AblationBypass(ctx context.Context, base Options) ([]AblationPoint, error) {
	return sweep(ctx, base, []string{"predictor", "never-bypass"}, func(o Options, i int) Options {
		o.DisableBypassPredictor = i == 1
		return o
	})
}

// AblationTLBAwareCaching explores the Section 5.1 proposal: cache
// replacement that prioritizes retaining POM-TLB entries (or data) in the
// L2/L3 data caches.
func AblationTLBAwareCaching(ctx context.Context, base Options) ([]AblationPoint, error) {
	prios := []cache.Priority{cache.NoPriority, cache.PreferTLB, cache.PreferData}
	return sweep(ctx, base, []string{"kind-blind", "prefer-tlb", "prefer-data"}, func(o Options, i int) Options {
		o.CachePriority = prios[i]
		return o
	})
}

// AblationNeighborPrefetch explores the Section 6 prefetch extension:
// installing a fetched burst's neighbouring translations into the L2 TLB.
func AblationNeighborPrefetch(ctx context.Context, base Options) ([]AblationPoint, error) {
	return sweep(ctx, base, []string{"no-prefetch", "neighbor-prefetch"}, func(o Options, i int) Options {
		o.NeighborPrefetch = i == 1
		return o
	})
}

// MultiVMStudy reproduces §5.2: several VMs sharing one POM-TLB still see
// high walk elimination because the large TLB holds all VMs' hot sets.
func MultiVMStudy(ctx context.Context, base Options, vmCounts []int) ([]AblationPoint, error) {
	labels := make([]string, len(vmCounts))
	for i, v := range vmCounts {
		labels[i] = strconv.Itoa(v) + " VMs"
	}
	return sweep(ctx, base, labels, func(o Options, i int) Options {
		o.VMs = vmCounts[i]
		return o
	})
}
