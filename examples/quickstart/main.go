// Quickstart: build the paper's 8-core virtualized system, run one
// TLB-intensive workload under the baseline and under the POM-TLB, and
// print the headline comparison — the 60-second tour of the library.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/workloads"
)

func main() {
	const benchmark = "mcf"
	p, ok := workloads.ByName(benchmark)
	if !ok {
		log.Fatalf("unknown workload %q", benchmark)
	}

	run := func(mode core.Mode) core.Result {
		cfg := core.DefaultConfig() // Table 1 parameters
		cfg.Mode = mode
		cfg.Cores = 4
		cfg.WarmupRefs = 300_000
		cfg.MaxRefs = 200_000
		sys, err := core.NewSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run(context.Background(), p.Generator(cfg.Cores, 1), p.Name)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run(core.Baseline)
	pom := run(core.POMTLB)

	fmt.Printf("workload: %s — %d MB footprint, %.0f%% 2MB pages\n\n",
		p.Name, p.FootprintBytes>>20, p.LargePagePct)
	fmt.Printf("baseline (2D page walks):  %6.1f cycles per L2 TLB miss\n", base.AvgPenalty())
	fmt.Printf("POM-TLB:                   %6.1f cycles per L2 TLB miss\n", pom.AvgPenalty())
	fmt.Printf("page walks eliminated:     %6.1f%%\n", 100*pom.WalkEliminationRate())
	fmt.Printf("POM entries found in L2D$: %6.1f%%, in L3D$: %.1f%%\n",
		100*pom.L2DProbe.Ratio(), 100*pom.L3DProbe.Ratio())

	// The paper's performance model combines the measured baseline
	// (Table 2) with the simulated POM-TLB penalty.
	imp, err := perfmodel.ImprovementPct(perfmodel.FromProfile(p, true, pom.AvgPenalty()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmodelled speedup over the measured Skylake baseline: +%.2f%%\n", imp)
}
