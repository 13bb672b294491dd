package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"loop-uniform", "loop-zipf", "loop-consol", "sweep-grid", "daemon-ingest"}

// buildDir is the directory, relative to the repository root,
// that run.sh builds into; sweeps keep their journals there and traced
// runs their profiles.
const buildDir = ".bench_build"

// options select one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	quick    bool
	traceDir string // where a traced run writes its profiles and spans
	workDir  string // where sweeps keep their journals
}

// result is one run's outcome, printed as the last stdout line.
type result struct {
	attempted, failed int
	metrics           []metric
	notes             []string // printed as comment lines
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames)+", or all (one child process each)")
	fs.Uint64Var(&o.seed, "seed", 42, "seed for the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 18, "how long the measured rounds run")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(buildDir, "trace"), "directory a traced run writes <workload>/{cpu-NN.pprof,block.pprof,spans.jsonl} to")
	fs.BoolVar(&o.quick, "quick", false, "shrink every workload to smoke-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "simbench: -trace must be 0 or 1")
		return 2
	}
	o.traced = *trace == 1
	o.workDir = buildDir
	if o.workload == "all" {
		return runAll(ctx, args, stdout, stderr)
	}

	res, err := benchmark(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %s: %v\n", o.workload, err)
		return 1
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %d quick %v\n", o.workload, o.seed, o.seconds, *trace, o.quick)
	fmt.Fprintf(stdout, "# %s GOMAXPROCS %d GOGC %s\n", runtime.Version(), runtime.GOMAXPROCS(0), gogc)
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	return 0
}

// benchmark runs one workload and returns its end-to-end metrics, or its
// per-layer metrics when traced.
func benchmark(ctx context.Context, o options) (result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, err
	}
	e := &env{seed: o.seed, budget: time.Duration(o.seconds * float64(time.Second)), quick: o.quick, workDir: o.workDir}
	if o.traced {
		e.prof = &profiler{}
		e.spans = &spans{t0: time.Now()}
	}
	var m *measurement
	var block []byte
	var err error
	switch o.workload {
	case "sweep-grid":
		m, err = runSweep(ctx, e)
	case "daemon-ingest":
		m, block, err = runDaemon(ctx, e)
	default:
		spec, ok := loopSpecFor(o.workload, o.quick)
		if !ok {
			return result{}, fmt.Errorf("unknown workload %q (want one of %v or all)", o.workload, workloadNames)
		}
		m, err = runLoop(ctx, e, spec)
	}
	if err != nil {
		return result{}, err
	}
	res := result{attempted: m.attempted, failed: m.failed, notes: spreadNotes(m)}
	if !o.traced {
		res.metrics = endToEnd(m)
		return res, nil
	}
	if res.metrics, err = perLayer(ctx, e, m, block); err != nil {
		return result{}, err
	}
	return res, writeTrace(filepath.Join(o.traceDir, o.workload), e, block)
}

// printResult prints the notes as comment lines, one "name value unit"
// line per metric, the operation counts, and the JSON result as the last
// line.
func printResult(w io.Writer, res result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	metrics := map[string]value{}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%s %.6g %s\n", m.Name, m.Value, m.Unit)
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	fmt.Fprintf(w, "ops %d\nops_failed %d\n", res.attempted, res.failed)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload in a child process of this binary, so each
// reports its own peak memory.
func runAll(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	code := 0
	for _, name := range workloadNames {
		cmd := exec.CommandContext(ctx, os.Args[0], append(args, "-workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "simbench: %s: %v\n", name, err)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || ctx.Err() != nil {
				return 1
			}
			code = 1
		}
	}
	return code
}
