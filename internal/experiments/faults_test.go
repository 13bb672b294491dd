package experiments

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/resilience"
)

// errorOn schedules err to fail the given runs of the cell key.
func (s *FaultSchedule) errorOn(key string, err error, nth ...uint64) {
	s.add(key, nth, func(key string, n uint64) error {
		return fmt.Errorf("scheduled fault in cell %s (run %d): %w", key, n, err)
	})
}

// callOn schedules fn at the given runs of the cell key; the runs
// themselves succeed.
func (s *FaultSchedule) callOn(key string, fn func(), nth ...uint64) {
	s.add(key, nth, func(string, uint64) error {
		fn()
		return nil
	})
}

// hits returns how many times the cell key has fired so far.
func (s *FaultSchedule) hits(key string) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[key]
}

func TestFaultsNilScheduleIsInert(t *testing.T) {
	var s *FaultSchedule
	if err := s.fire("gups|pom-tlb"); err != nil {
		t.Fatal(err)
	}
	if s.hits("gups|pom-tlb") != 0 {
		t.Error("nil schedule counted a run")
	}
}

func TestFaultsPanicOnNthRun(t *testing.T) {
	s := newFaultSchedule()
	s.panicOn("gups|pom-tlb", 3)
	for i := 0; i < 2; i++ {
		if err := s.fire("gups|pom-tlb"); err != nil {
			t.Fatal(err)
		}
	}
	err := resilience.Safe(func() error { return s.fire("gups|pom-tlb") })
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("third run: err = %v, want panic", err)
	}
	if s.hits("gups|pom-tlb") != 3 {
		t.Errorf("hits = %d", s.hits("gups|pom-tlb"))
	}
	// Later runs are clean again, and other keys count apart.
	if err := s.fire("gups|pom-tlb"); err != nil {
		t.Fatal(err)
	}
	if s.hits("mcf|pom-tlb") != 0 {
		t.Error("a run of one key counted for another")
	}
}

func TestFaultsErrorOn(t *testing.T) {
	s := newFaultSchedule()
	sentinel := errors.New("io glitch")
	s.errorOn("gups|pom-tlb", sentinel, 1, 2)
	for run := 1; run <= 2; run++ {
		if err := s.fire("gups|pom-tlb"); !errors.Is(err, sentinel) {
			t.Errorf("run %d: %v", run, err)
		}
	}
	if err := s.fire("gups|pom-tlb"); err != nil {
		t.Errorf("run 3 should be clean: %v", err)
	}
}

func TestFaultsCallOn(t *testing.T) {
	s := newFaultSchedule()
	called := 0
	s.callOn("gups|pom-tlb", func() { called++ }, 2)
	for i := 0; i < 3; i++ {
		if err := s.fire("gups|pom-tlb"); err != nil {
			t.Fatal(err)
		}
	}
	if called != 1 {
		t.Errorf("called = %d, want 1", called)
	}
}
