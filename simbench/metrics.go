package main

import (
	"math"
	"sort"

	"repro/internal/core"
)

// metricDef names one printed metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// metric is one measured value.
type metric struct {
	metricDef
	Value float64
}

// endToEndDefs lists the metrics every untraced run prints, for every
// workload: host throughput over all translation schemes, set-up time
// and memory.
func endToEndDefs() []metricDef {
	return []metricDef{{"rps", "rec/s"}, {"setup_s", "s"}, {"heap_live_mb", "MiB"}}
}

// perLayerDefs lists the metrics every traced run prints, for every
// workload. A layer a workload never enters reads 0.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, m := range core.Modes() {
		defs = append(defs, metricDef{"rps." + string(m), "rec/s"})
	}
	defs = append(defs, metricDef{"wall.rps", "rec/s"}, metricDef{"ref.steps_per_s", "1/s"},
		metricDef{"gen.ns_per_rec", "ns"})
	for _, l := range layers {
		defs = append(defs, metricDef{"self_ns." + l, "ns"})
	}
	for _, l := range schemeLayers {
		for _, m := range core.Modes() {
			defs = append(defs, metricDef{"self_ns." + l + "." + string(m), "ns"})
		}
	}
	defs = append(defs, metricDef{"sim.l2tlb_miss_per_krec", "count"})
	for _, m := range core.Modes() {
		s := string(m)
		defs = append(defs,
			metricDef{"sim.walks_per_krec." + s, "count"},
			metricDef{"sim.cache_acc_per_krec." + s, "count"},
			metricDef{"sim.dram_acc_per_krec." + s, "count"},
			metricDef{"sim.pavg_cycles." + s, "cycles"})
	}
	return append(defs,
		metricDef{"share.build_pct", "%"},
		metricDef{"share.loop_pct", "%"},
		metricDef{"share.journal_pct", "%"},
		metricDef{"share.runtime_pct", "%"},
		metricDef{"server.create_ms", "ms"},
		metricDef{"server.ingest_p50_ms", "ms"},
		metricDef{"server.ingest_p99_ms", "ms"},
		metricDef{"server.decode_pct", "%"},
		metricDef{"server.stream_lock_pct", "%"},
		metricDef{"server.snapshot_pct", "%"},
		metricDef{"server.append_wait_ms_per_post", "ms"},
		metricDef{"server.starve_ms_per_krec", "ms"},
		metricDef{"trace.ns_per_rec", "ns"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"max_rss_mb", "MiB"})
}

// valuesFor returns one metric per definition, valued from v; a name v
// lacks reads 0.
func valuesFor(defs []metricDef, v map[string]float64) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		out[i] = metric{d, v[d.Name]}
	}
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count), like Python's statistics.median. It returns 0 for no
// values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// the definition the benchmark's spread is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// geomean returns the geometric mean of positive values, 0 if any is not
// positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
