package experiments

import (
	"errors"

	"repro/internal/resilience/faultinject"
)

// ErrInjected is the transient failure SeedChaos schedules at flaky
// cells.
var ErrInjected = errors.New("sweep: injected chaos fault")

// ChaosPlan names the cells a SeedChaos call doomed, so tests and CI
// can assert the quarantine manifest is exactly the injected set.
type ChaosPlan struct {
	// Panicked cells panic on every attempt: the resilience layer treats
	// a panic as permanent, so each lands in quarantine with its stack.
	Panicked []string
	// Flaky cells fail their first attempt with ErrInjected and succeed
	// on retry — they consume retry budget but must NOT be quarantined.
	Flaky []string
}

// SeedChaos schedules deterministic faults at the sweep-cell seam: each
// cell's fate is a pure function of (seed, cell key), independent of
// shard assignment, worker scheduling, and which run — first, killed, or
// resumed — executes the cell. panicRate and flakyRate are probabilities
// in [0, 1]; their sum is clamped to 1 (panic wins ties).
func SeedChaos(s *faultinject.Schedule, cells []Cell, panicRate, flakyRate float64, seed uint64) ChaosPlan {
	var plan ChaosPlan
	for _, c := range cells {
		key := c.Key()
		u := cellUniform(seed, key)
		switch {
		case u < panicRate:
			s.PanicOn(faultinject.SweepCellSite(key), 1)
			plan.Panicked = append(plan.Panicked, key)
		case u < panicRate+flakyRate:
			s.ErrorOn(faultinject.SweepCellSite(key), ErrInjected, 1)
			plan.Flaky = append(plan.Flaky, key)
		}
	}
	return plan
}

// cellUniform hashes (seed, key) to a uniform value in [0, 1) with the
// same splitmix64 finalizer the trace generators use.
func cellUniform(seed uint64, key string) float64 {
	h := seed ^ 0x9E3779B97F4A7C15
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001B3
	}
	z := h
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
