package experiments

import "repro/internal/resilience/faultinject"

// ChaosPlan names the cells a SeedChaos call doomed, so tests and CI
// can assert the quarantine manifest is exactly the injected set.
type ChaosPlan struct {
	// Panicked cells panic the first time the schedule runs them: each
	// lands in quarantine with its stack, and a resume that re-arms the
	// plan quarantines them again.
	Panicked []string
}

// SeedChaos schedules deterministic panics at the sweep-cell seam: each
// cell's fate is a pure function of (seed, cell key), independent of
// worker scheduling and of which run — first, killed, or resumed —
// executes the cell. panicRate is a probability in [0, 1].
func SeedChaos(s *faultinject.Schedule, cells []Cell, panicRate float64, seed uint64) ChaosPlan {
	var plan ChaosPlan
	for _, c := range cells {
		key := c.Key()
		if cellUniform(seed, key) < panicRate {
			s.PanicOn(faultinject.SweepCellSite(key), 1)
			plan.Panicked = append(plan.Panicked, key)
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
