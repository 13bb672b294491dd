package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/consolidation"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// DefaultConsolidationPreset is the scenario the report's per-tier
// breakdown runs: the stationary 120-guest Zipf pool.
const DefaultConsolidationPreset = "consol-zipf"

// ConsolidationModes are the schemes the per-tier breakdown compares by
// default: the paper's headline POM-TLB against the simulated-walk
// baseline and the SRAM/in-memory alternatives it argues against.
var ConsolidationModes = []core.Mode{core.Baseline, core.SharedL2, core.TSB, core.POMTLB}

// runConsolidationCell simulates one consolidation-scenario cell. The
// scenario layer builds the tenant pool, the gang-scheduled composite
// generator and the shootdown/migration schedule; the system gets one VM
// per guest. Walks are always simulated here — no Table 2 calibration
// exists for a synthetic tenant mix, and simulated walks keep every
// scheme on one comparable axis (like the UncalibratedWalks path).
func runConsolidationCell(ctx context.Context, opts Options, preset workloads.Consolidation, mode core.Mode) (core.Result, error) {
	cfg := opts.Config
	cfg.Mode, cfg.Virtualized = mode, true
	scn, err := consolidation.New(consolidation.Config{
		Preset:       preset,
		Cores:        cfg.Cores,
		Seed:         cfg.Seed,
		TotalRecords: uint64(cfg.WarmupRefs + cfg.MaxRefs),
		Guests:       opts.Tenants,
		ChurnEvery:   opts.ChurnEvery,
		Phases:       opts.Phases,
	})
	if err != nil {
		return core.Result{}, err
	}
	cfg.VMs = scn.Guests
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	sys.SetEvents(scn.Events)
	return sys.Run(ctx, scn.Gen, preset.Name)
}

// TierRow is one (scheme, tier) cell of the consolidation breakdown.
type TierRow struct {
	Mode     core.Mode
	Tier     string
	Share    float64
	SRAMHit  float64
	WalkElim float64
	Penalty  float64
}

// ConsolidationTiers runs the named consolidation preset under each mode
// and extracts the per-tier rows. A nil modes slice uses
// ConsolidationModes. Partial results plus a CampaignError are returned
// when cells fail.
func ConsolidationTiers(ctx context.Context, r *Runner, preset string, modes []core.Mode) ([]TierRow, error) {
	if len(modes) == 0 {
		modes = ConsolidationModes
	}
	grid, err := r.Grid(ctx, []string{preset}, modes...)
	var rows []TierRow
	for j, res := range grid[0] {
		if res == nil {
			continue
		}
		for tier := 0; tier < core.NumTiers; tier++ {
			rows = append(rows, TierRow{
				Mode:     modes[j],
				Tier:     core.TierNames[tier],
				Share:    res.TierShare(tier),
				SRAMHit:  res.TierSRAMHitRatio(tier),
				WalkElim: res.TierWalkElim(tier),
				Penalty:  res.TierAvgPenalty(tier),
			})
		}
	}
	return rows, err
}

// WriteConsolidationTiers renders the per-tier cross-scheme table.
func WriteConsolidationTiers(w io.Writer, rows []TierRow) {
	t := stats.NewTable("Scheme", "Tier", "Ref share", "SRAM TLB hit", "Walk elim", "P_avg (cyc)")
	for _, row := range rows {
		t.AddRow(row.Mode.String(), row.Tier,
			fmt.Sprintf("%.1f%%", 100*row.Share),
			fmt.Sprintf("%.1f%%", 100*row.SRAMHit),
			fmt.Sprintf("%.1f%%", 100*row.WalkElim),
			fmt.Sprintf("%.1f", row.Penalty))
	}
	fmt.Fprintf(w, "```\n%s```\n\n", t.String())
}
