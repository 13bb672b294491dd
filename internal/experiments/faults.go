package experiments

import (
	"fmt"
	"sync"
)

// FaultSchedule is a deterministic fault plan over cells. SimulateCell
// fires the cell's key (Cell.Key) once per run, first thing inside its
// resilience envelope, so an injected fault takes the path a real
// simulation failure takes. Faults are keyed by (cell key, 1-based run
// number). A nil *FaultSchedule is inert, so production runs thread one
// unconditionally.
type FaultSchedule struct {
	mu     sync.Mutex
	runs   map[string]uint64
	faults map[faultAt]fault
}

// faultAt is where a fault fires: the n-th run of a cell key.
type faultAt struct {
	key string
	n   uint64
}

// fault is one scheduled effect, called with the cell key and run
// number it fires at; its error fails the run.
type fault func(key string, n uint64) error

// newFaultSchedule creates an empty fault plan.
func newFaultSchedule() *FaultSchedule {
	return &FaultSchedule{runs: map[string]uint64{}, faults: map[faultAt]fault{}}
}

func (s *FaultSchedule) add(key string, nth []uint64, f fault) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range nth {
		s.faults[faultAt{key, n}] = f
	}
}

// panicOn schedules panics at the given 1-based runs of the cell key.
func (s *FaultSchedule) panicOn(key string, nth ...uint64) {
	s.add(key, nth, func(key string, n uint64) error {
		panic(fmt.Sprintf("scheduled panic in cell %s (run %d)", key, n))
	})
}

// fire records one run of the cell key and applies the fault due, if any.
func (s *FaultSchedule) fire(key string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.runs[key]++
	n := s.runs[key]
	f := s.faults[faultAt{key, n}]
	s.mu.Unlock()
	if f == nil {
		return nil
	}
	return f(key, n)
}

// ChaosPlan names the cells a SeedChaos call doomed, so tests and CI
// can assert the quarantine manifest is exactly the injected set.
type ChaosPlan struct {
	// Panicked cells panic the first time the schedule runs them: each
	// lands in quarantine with its stack, and a resume that re-arms the
	// plan quarantines them again.
	Panicked []string
}

// SeedChaos arms a fresh schedule with deterministic cell panics: each
// cell's fate is a pure function of (seed, cell key), independent of
// worker scheduling and of which run — first, killed, or resumed —
// executes the cell. panicRate is a probability in [0, 1].
func SeedChaos(cells []Cell, panicRate float64, seed uint64) (*FaultSchedule, ChaosPlan) {
	s := newFaultSchedule()
	var plan ChaosPlan
	for _, c := range cells {
		key := c.Key()
		if cellUniform(seed, key) < panicRate {
			s.panicOn(key, 1)
			plan.Panicked = append(plan.Panicked, key)
		}
	}
	return s, plan
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
