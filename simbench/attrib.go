package main

import "strings"

// repoPrefix is the import-path prefix of the simulator's modules; a
// profile frame whose function name starts with it belongs to a layer.
const repoPrefix = "repro/internal/"

// layers are the simulator modules CPU time is split across, plus
// "runtime" (stacks with no repository frame: the Go runtime, the
// standard library and this benchmark's own code) and "other"
// (repository modules too small to report alone: addr, stats, ...).
var layers = []string{
	"core", "trace", "consolidation", "tlb", "pomtlb", "tsb", "victima", "dramcache",
	"pagetable", "virt", "cache", "dram", "experiments", "server", "runtime", "other",
}

// schemeLayers are the layers whose self time is also reported per
// translation scheme: the ones every scheme exercises.
var schemeLayers = []string{"core", "tlb", "cache", "dram"}

// layerOf attributes a stack (innermost frame first, inlined frames
// expanded) to the module of its innermost repository frame.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	return "runtime"
}

// stackHolds reports whether any frame names one of the functions. A
// name ending in "." matches every function it prefixes (all methods of
// a type); any other name matches exactly, so closures defined inside a
// function, which the compiler names after it, do not count as it.
func stackHolds(stack []string, funcs ...string) bool {
	for _, fn := range stack {
		for _, f := range funcs {
			if fn == f || (strings.HasSuffix(f, ".") && strings.HasPrefix(fn, f)) {
				return true
			}
		}
	}
	return false
}

// shareRules define the CPU-share metrics: the percentage of all CPU
// samples whose stack holds one of the functions.
var shareRules = []struct {
	metric string
	frames []string
}{
	{"share.build_pct", []string{"repro/internal/core.NewSystem", "repro/internal/consolidation.New"}},
	{"share.loop_pct", []string{"repro/internal/core.(*System).runRecords"}},
	{"share.journal_pct", []string{"repro/internal/experiments.(*SweepJournal)."}},
	{"server.decode_pct", []string{"repro/internal/trace.(*Reader).Read"}},
	{"server.stream_lock_pct", []string{"repro/internal/server.(*streamGen)."}},
	{"server.snapshot_pct", []string{"repro/internal/core.(*System).Snapshot"}},
}

// Block-profile stacks of the daemon's session stream: ingest waiting
// for queue room (the simulation is the bottleneck) and the simulation
// waiting for records (the upload is the bottleneck).
var (
	appendFrames = []string{"repro/internal/server.(*streamGen).append"}
	starveFrames = []string{"repro/internal/server.(*streamGen).Next"}
)
