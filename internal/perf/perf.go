// Package perf holds the trace geometry of the simulator benchmark's
// loop-uniform and daemon-ingest workloads (simbench/): a uniform random
// footprint, part of it on 2 MB pages, that simbench's uniformTrace turns
// into a trace.Uniform generator.
package perf

// Config is the benchmark trace's geometry.
type Config struct {
	// FootprintBytes is the synthetic workload footprint. It must be
	// small enough that the benchmark's warm-up demand-maps every page
	// (steady state) and large enough to overflow the SRAM TLBs so the
	// deep translation paths are exercised.
	FootprintBytes uint64
	// LargeFrac is the 2 MB-page share of the footprint.
	LargeFrac float64
}

// DefaultConfig returns the benchmark geometry: a 16 MB footprint (4096
// small pages, about 2.7× the combined L2 TLB capacity, so post-TLB paths
// dominate), a quarter of it on 2 MB pages.
func DefaultConfig() Config {
	return Config{
		FootprintBytes: 16 << 20,
		LargeFrac:      0.25,
	}
}
