// Package sweep forwards the three sweep names the simbench module
// imports. The design-space sweep engine itself lives in package
// experiments (RunSweep).
package sweep

import (
	"context"

	"repro/internal/experiments"
)

// Config is experiments.SweepConfig.
type Config = experiments.SweepConfig

// Spec is experiments.Spec.
type Spec = experiments.Spec

// Run is experiments.RunSweep.
func Run(ctx context.Context, cfg Config) (*experiments.SweepReport, error) {
	return experiments.RunSweep(ctx, cfg)
}
