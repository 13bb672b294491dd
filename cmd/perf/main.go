// Command perf measures and compares the simulator's performance
// trajectory.
//
// Measure mode (default) times the steady-state record loop for every
// translation scheme and writes a schema-versioned trajectory file:
//
//	go run ./cmd/perf                    # writes BENCH_<today>.json
//	go run ./cmd/perf -out /tmp/b.json   # explicit output path
//	go run ./cmd/perf -quick             # shrunk geometry for CI smoke
//
// Compare mode diffs two trajectory files on records/sec and exits 1
// when any scheme regressed beyond the tolerance — the CI bench gate:
//
//	go run ./cmd/perf -compare BENCH_old.json -against BENCH_new.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/perf"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "shrunk geometry for CI smoke runs")
		out       = flag.String("out", "", "output path (default BENCH_<date>.json)")
		date      = flag.String("date", "", "date stamp (default today, YYYY-MM-DD)")
		compare   = flag.String("compare", "", "baseline trajectory file; enables compare mode")
		against   = flag.String("against", "", "candidate trajectory file (compare mode)")
		tolerance = flag.Float64("tolerance", 0.05, "allowed fractional records/sec slowdown (compare mode)")
		cores     = flag.Int("cores", 0, "override simulated core count")
		warmup    = flag.Int("warmup", 0, "override warmup records")
		refs      = flag.Int("refs", 0, "override measured records per window")
		repeats   = flag.Int("repeats", 0, "override timed windows per scheme")
	)
	flag.Parse()

	if *compare != "" {
		runCompare(*compare, *against, *tolerance)
		return
	}

	cfg := perf.DefaultConfig()
	if *quick {
		cfg = perf.QuickConfig()
	}
	if *cores > 0 {
		cfg.Cores = *cores
	}
	if *warmup > 0 {
		cfg.WarmupRefs = *warmup
	}
	if *refs > 0 {
		cfg.MeasureRefs = *refs
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}

	stamp := *date
	if stamp == "" {
		stamp = time.Now().UTC().Format("2006-01-02")
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", stamp)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("measuring trajectory: %d cores, %d MB footprint, %d warmup + %d×%d measured records/scheme\n",
		cfg.Cores, cfg.FootprintBytes>>20, cfg.WarmupRefs, cfg.Repeats, cfg.MeasureRefs)
	t, err := perf.Measure(ctx, cfg, stamp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
	if err := t.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}

	fmt.Printf("\n%-16s %14s %12s %14s %14s\n",
		"scheme", "records/sec", "ns/transl", "allocs/record", "bytes/record")
	for _, s := range t.Schemes {
		fmt.Printf("%-16s %14.0f %12.1f %14.4f %14.1f\n",
			s.Scheme, s.RecordsPerSec, s.NsPerTranslation, s.AllocsPerRecord, s.BytesPerRecord)
	}
	fmt.Printf("\nwrote %s\n", path)
}

func runCompare(oldPath, newPath string, tolerance float64) {
	if newPath == "" {
		fmt.Fprintln(os.Stderr, "perf: -compare requires -against <new.json>")
		os.Exit(2)
	}
	oldT, err := perf.Load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newT, err := perf.Load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	c := perf.Compare(oldT, newT, tolerance)
	fmt.Printf("baseline %s (%s) vs candidate %s (%s), tolerance %.0f%%\n\n",
		oldPath, oldT.Date, newPath, newT.Date, tolerance*100)
	fmt.Print(c.String())
	if c.Regressed() {
		fmt.Printf("\nFAIL: records/sec regressed more than %.0f%%\n", tolerance*100)
		os.Exit(1)
	}
	fmt.Println("\nOK: no scheme regressed beyond tolerance")
}
