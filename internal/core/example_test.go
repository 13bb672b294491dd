package core_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/workloads"
)

// Example_quickstart builds the paper's virtualized system, runs one
// TLB-intensive workload under the baseline and under the POM-TLB, and
// prints the headline comparison.
func Example_quickstart() {
	p, ok := workloads.ByName("mcf")
	if !ok {
		log.Fatal("unknown workload mcf")
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
	imp := perfmodel.ImprovementPct(perfmodel.FromProfile(p, true, pom.AvgPenalty()))
	fmt.Printf("\nmodelled speedup over the measured Skylake baseline: +%.2f%%\n", imp)
	// Output:
	// workload: mcf — 320 MB footprint, 61% 2MB pages
	//
	// baseline (2D page walks):   204.4 cycles per L2 TLB miss
	// POM-TLB:                    100.5 cycles per L2 TLB miss
	// page walks eliminated:      100.0%
	// POM entries found in L2D$:   37.2%, in L3D$: 27.1%
	//
	// modelled speedup over the measured Skylake baseline: +8.35%
}
