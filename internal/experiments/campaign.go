package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// WorkloadError is one failed (workload, scheme) cell of a campaign: the
// structured per-job error the resilience layer produces when a worker
// panics, times out, is cancelled, or hits a simulation error. The rest
// of the campaign keeps running; the figure and report layers skip the
// failed cells and surface the failures alongside the partial results.
type WorkloadError struct {
	Workload string
	Mode     core.Mode
	// Variant tells apart cells that run the same (workload, scheme) pair
	// under other options: the geometry label of a design-space sweep cell
	// ("pom-mb=4|pom-ways=2"), an ablation point label ("8MB"), "native" or
	// "uncalibrated"; empty for the main campaign's cells.
	Variant string
	Err     error
}

// cell names the failed cell: "workload/scheme", plus "[variant]" if set.
func (e *WorkloadError) cell() string {
	if e.Variant != "" {
		return fmt.Sprintf("%s/%s[%s]", e.Workload, e.Mode, e.Variant)
	}
	return fmt.Sprintf("%s/%s", e.Workload, e.Mode)
}

// Error implements error.
func (e *WorkloadError) Error() string {
	return fmt.Sprintf("workload %s: %v", e.cell(), e.Err)
}

// Unwrap exposes the cause to errors.Is/As (including *resilience.PanicError
// for recovered worker panics and context errors for cancellations).
func (e *WorkloadError) Unwrap() error { return e.Err }

// asWorkloadError normalizes an error from a campaign cell: errors that
// already carry their (workload, scheme) identity pass through; anything
// else is tagged with the cell it came from.
func asWorkloadError(err error, name string, mode core.Mode) *WorkloadError {
	var we *WorkloadError
	if errors.As(err, &we) {
		return we
	}
	return &WorkloadError{Workload: name, Mode: mode, Err: err}
}

// CampaignError aggregates every failed cell of a degraded campaign. A
// campaign entry point that returns partial results pairs them with a
// *CampaignError so callers can render what completed and report exactly
// which (scheme, workload) cells are missing.
type CampaignError struct {
	Failures []*WorkloadError
}

// Error implements error with a one-line-per-cell summary.
func (e *CampaignError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign degraded: %d cell(s) failed", len(e.Failures))
	for _, f := range e.Failures {
		fmt.Fprintf(&b, "\n  %s: %v", f.cell(), f.Err)
	}
	return b.String()
}

// Unwrap exposes the individual failures to errors.Is/As.
func (e *CampaignError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f
	}
	return out
}

// failureSet collects per-cell failures during figure extraction.
type failureSet struct {
	fails []*WorkloadError
	seen  map[string]bool
}

func (f *failureSet) record(err error, name string, mode core.Mode) {
	we := asWorkloadError(err, name, mode)
	key := we.cell()
	if f.seen == nil {
		f.seen = map[string]bool{}
	}
	if f.seen[key] {
		return
	}
	f.seen[key] = true
	f.fails = append(f.fails, we)
}

// absorb folds another campaign stage's error into the set, so a report
// that runs many figures returns one combined *CampaignError.
func (f *failureSet) absorb(err error) {
	if err == nil {
		return
	}
	var ce *CampaignError
	if errors.As(err, &ce) {
		for _, we := range ce.Failures {
			f.record(we, we.Workload, we.Mode)
		}
		return
	}
	f.record(err, "(campaign)", "")
}

// err returns nil for a clean campaign, else a deterministic-order
// *CampaignError.
func (f *failureSet) err() error { return campaignError(f.fails) }

// campaignError wraps failures into a *CampaignError (nil when empty),
// sorted by (workload, mode, variant) so degraded campaigns report
// reproducibly regardless of goroutine scheduling.
func campaignError(fails []*WorkloadError) error {
	if len(fails) == 0 {
		return nil
	}
	sort.Slice(fails, func(i, j int) bool {
		if fails[i].Workload != fails[j].Workload {
			return fails[i].Workload < fails[j].Workload
		}
		if fails[i].Mode != fails[j].Mode {
			return fails[i].Mode < fails[j].Mode
		}
		return fails[i].Variant < fails[j].Variant
	})
	return &CampaignError{Failures: fails}
}
