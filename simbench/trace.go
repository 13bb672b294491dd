package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// profileHz is the traced run's CPU sampling rate. runtime/pprof fixes
// 100 Hz; setting the rate first makes StartCPUProfile keep it (and print
// a one-line warning to stderr each time). Linux delivers CPU-time
// profiling signals at most once per scheduler tick, commonly 250 Hz, so
// a higher rate would silently lose samples.
const profileHz = 250

// profiler collects the CPU profile of a traced run in segments, one per
// profiled phase.
type profiler struct {
	buf  bytes.Buffer
	cpu0 float64
	segs []segment
}

// segment is one profiled phase and the process CPU time it took, which
// calibrates the CPU time a sample stands for.
type segment struct {
	data  []byte
	cpuNs float64
}

func (p *profiler) start() error {
	p.buf.Reset()
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.cpu0 = processCPUNs()
	return nil
}

func (p *profiler) stop() {
	cpu := processCPUNs() - p.cpu0
	pprof.StopCPUProfile()
	p.segs = append(p.segs, segment{bytes.Clone(p.buf.Bytes()), cpu})
}

// processCPUNs returns the user plus system CPU time of every thread of
// the process.
func processCPUNs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// spans records the benchmark's own boundary spans (set-up steps,
// windows, sweeps, HTTP requests) in memory; a nil *spans records
// nothing.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// begin opens a span and returns its id (0 when not recording).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Start: time.Since(s.t0).Nanoseconds()})
	return id
}

func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list[id-1].End = time.Since(s.t0).Nanoseconds()
}

// writeTrace stores the traced run's raw data in dir: cpu-NN.pprof per
// profiled segment (go tool pprof merges them), block.pprof when the
// workload profiles blocking, and spans.jsonl.
func writeTrace(dir string, e *env, block []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, seg := range e.prof.segs {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%02d.pprof", i)), seg.data, 0o644); err != nil {
			return err
		}
	}
	if block != nil {
		if err := os.WriteFile(filepath.Join(dir, "block.pprof"), block, 0o644); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range e.spans.list {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer assembles the traced run's per-layer metrics from the CPU
// profile segments, the block profile (nil unless the daemon ran), the
// untraced and traced throughputs and the simulated statistics.
func perLayer(ctx context.Context, e *env, m *measurement, block []byte) ([]metric, error) {
	v := map[string]float64{}
	genNs, err := timeGenerators(ctx, e, m)
	if err != nil {
		return nil, err
	}
	v["gen.ns_per_rec"] = genNs

	// CPU: self time of windows by layer and scheme, stack shares of
	// every sample.
	var total float64
	share := map[string]float64{}
	perRec := 1 / float64(max(m.tracedRecords, 1))
	for _, seg := range e.prof.segs {
		p, err := parseProfile(seg.data)
		if err != nil {
			return nil, err
		}
		cnt := p.valueIndex("samples")
		if cnt < 0 {
			return nil, fmt.Errorf("cpu profile has no sample counts (types %v)", p.SampleTypes)
		}
		var n float64
		for _, s := range p.Samples {
			n += float64(s.Values[cnt])
		}
		periodNs := seg.cpuNs / max(n, 1)
		for _, s := range p.Samples {
			w := float64(s.Values[cnt])
			total += w
			for _, r := range shareRules {
				if stackHolds(s.Stack, r.frames...) {
					share[r.metric] += w
				}
			}
			layer := layerOf(s.Stack)
			if layer == "runtime" {
				share["share.runtime_pct"] += w
			}
			if s.Labels["phase"] != "window" {
				continue
			}
			ns := w * periodNs * perRec
			v["self_ns."+layer] += ns
			if scheme := s.Labels["scheme"]; scheme != "" {
				v["self_ns."+layer+"."+scheme] += ns
			}
		}
	}
	for name, w := range share {
		v[name] = 100 * w / max(total, 1)
	}

	// Block profile: where the daemon's goroutines waited on the session
	// stream.
	if block != nil {
		p, err := parseProfile(block)
		if err != nil {
			return nil, err
		}
		delay := p.valueIndex("delay")
		if delay < 0 {
			return nil, fmt.Errorf("block profile has no delay values (types %v)", p.SampleTypes)
		}
		var appendNs, starveNs float64
		for _, s := range p.Samples {
			switch {
			case stackHolds(s.Stack, appendFrames...):
				appendNs += float64(s.Values[delay])
			case stackHolds(s.Stack, starveFrames...):
				starveNs += float64(s.Values[delay])
			}
		}
		v["server.append_wait_ms_per_post"] = appendNs / 1e6 / float64(max(m.tracedPosts, 1))
		v["server.starve_ms_per_krec"] = starveNs / 1e6 * 1000 * perRec
	}
	v["server.create_ms"] = median(m.creates)
	v["server.ingest_p50_ms"] = median(m.posts)
	v["server.ingest_p99_ms"] = percentile(m.posts, 0.99)

	// Simulated statistics per thousand records.
	var recs, l2miss uint64
	for _, mode := range core.Modes() {
		c := m.sim[mode]
		recs += c.records
		l2miss += c.l2miss
		k := 1000 / float64(max(c.records, 1))
		s := string(mode)
		v["sim.walks_per_krec."+s] = float64(c.walks) * k
		v["sim.cache_acc_per_krec."+s] = float64(c.cacheAcc) * k
		v["sim.dram_acc_per_krec."+s] = float64(c.dramAcc) * k
		v["sim.pavg_cycles."+s] = float64(c.penalty) / float64(max(c.l2miss, 1))
	}
	v["sim.l2tlb_miss_per_krec"] = float64(l2miss) * 1000 / float64(max(recs, 1))

	// Throughput per scheme and measured throughput of the rounds run
	// without the profiler, and the machine speed the reference kernel saw
	// in them; comparing the measured throughput with the profiled rounds
	// gives the overhead.
	for i, r := range schemeMedians(m.rates) {
		v["rps."+string(core.Modes()[i])] = r
	}
	plain := geomean(schemeMedians(m.wall))
	v["wall.rps"] = plain
	v["ref.steps_per_s"] = median(m.refRates)
	v["trace.ns_per_rec"] = float64(m.tracedWall.Nanoseconds()) * perRec
	v["max_rss_mb"] = maxRSSMiB()
	if g := geomean(schemeMedians(m.traced)); g > 0 {
		v["trace.overhead_pct"] = 100 * (plain/g - 1)
	}
	return valuesFor(perLayerDefs(), v), nil
}

// timeGenerators times Next on fresh copies of the workload's
// generators: per generator the median of three passes of 200k records,
// averaged over the generators.
func timeGenerators(ctx context.Context, e *env, m *measurement) (float64, error) {
	const n = 200_000
	id := e.spans.begin("generators", 0)
	defer e.spans.end(id)
	var perGen [][]float64
	for pass := 0; pass < 3; pass++ {
		gens, err := m.gens()
		if err != nil {
			return 0, err
		}
		if perGen == nil {
			perGen = make([][]float64, len(gens))
		}
		for i, g := range gens {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			t0 := time.Now()
			for j := 0; j < n; j++ {
				g.Next()
			}
			perGen[i] = append(perGen[i], float64(time.Since(t0).Nanoseconds())/n)
		}
	}
	var sum float64
	for _, ts := range perGen {
		sum += median(ts)
	}
	return sum / float64(max(len(perGen), 1)), nil
}

// percentile returns the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
