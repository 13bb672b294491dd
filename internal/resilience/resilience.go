// Package resilience provides the fault-tolerance primitives the
// simulation campaign layer is built on: panic-to-error conversion with
// stack capture, bounded retries with capped exponential backoff and
// deterministic jitter, and per-job deadline enforcement.
//
// The campaign runner (internal/experiments) treats every
// (workload, scheme) simulation as an independently failable job, the way
// large simulation infrastructures schedule per-benchmark runs: a panic
// in one worker — a corrupt trace record, a degenerate configuration, an
// injected fault — degrades the campaign by one cell instead of killing
// the whole multi-hour sweep.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// PanicError is a recovered panic promoted to an error, carrying the
// panic value and the stack at the recovery point so a campaign's error
// report pinpoints the faulty worker without crashing the process.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// String includes the captured stack, for verbose error reports.
func (e *PanicError) String() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// Safe runs fn and converts a panic into a *PanicError. A panic carrying
// an error (the common `panic(err)` idiom of the substrate constructors)
// stays unwrappable via errors.Is/As through the PanicError's Value.
func Safe(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Unwrap exposes an error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Policy bounds a Retry loop.
type Policy struct {
	// MaxAttempts is the total number of tries (≥ 1).
	MaxAttempts int
	// BaseDelay is the first backoff; each subsequent backoff doubles.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
	// Jitter in [0, 1] scales a deterministic pseudo-random extension of
	// each delay (delay × (1 + Jitter·u), u ∈ [0, 1)), decorrelating
	// retry storms without sacrificing reproducibility.
	Jitter float64
	// Seed drives the jitter stream; campaigns pass their trace seed so
	// reruns back off identically.
	Seed uint64
}

// DefaultPolicy retries three times, 10 ms → 100 ms, with 50% jitter.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Jitter: 0.5, Seed: 1}
}

// permanentError marks an error that Retry must not retry.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps an error so Retry stops immediately: the failure is
// deterministic (bad configuration, unknown workload) and retrying would
// only waste the backoff budget.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was marked with Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// splitmix64 is the same deterministic generator the trace package uses,
// so jitter is reproducible across platforms.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Backoff returns the delay before the given 0-based retry attempt:
// BaseDelay·2^attempt capped at MaxDelay, scaled by the deterministic
// jitter stream.
func (p Policy) Backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 0; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		s := p.Seed ^ uint64(attempt+1)*0x9E3779B97F4A7C15
		u := float64(splitmix64(&s)>>11) / float64(1<<53)
		d = time.Duration(float64(d) * (1 + p.Jitter*u))
	}
	return d
}

// Budget is a global retry allowance shared by every job of a campaign
// or sweep: each re-attempt (every attempt after a job's first) consumes
// one token. When the pool is dry, jobs fail on their first error instead
// of backing off — a sweep where thousands of cells are flaky degrades in
// bounded time rather than multiplying every cell's failure by the
// per-cell retry cap. A nil *Budget is unlimited. Safe for concurrent use.
type Budget struct {
	remaining atomic.Int64
}

// NewBudget creates a budget of n total retries across all jobs.
func NewBudget(n int) *Budget {
	b := &Budget{}
	b.remaining.Store(int64(n))
	return b
}

// Take consumes one retry token, reporting whether one was available.
// A nil budget always grants.
func (b *Budget) Take() bool {
	if b == nil {
		return true
	}
	for {
		n := b.remaining.Load()
		if n <= 0 {
			return false
		}
		if b.remaining.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// Remaining returns the unconsumed retry tokens (0 for an exhausted
// budget; a large sentinel is not used — nil means unlimited).
func (b *Budget) Remaining() int {
	if b == nil {
		return 0
	}
	n := b.remaining.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// ErrBudgetExhausted marks a retry loop that stopped early because the
// shared Budget ran dry; errors.Is distinguishes "gave up globally" from
// "this job used its own attempt cap".
var ErrBudgetExhausted = errors.New("resilience: global retry budget exhausted")

// RetryBudget runs fn until it succeeds, returns a Permanent error, the
// context is cancelled, or MaxAttempts is exhausted. Panics inside fn are
// recovered into *PanicError and treated as permanent — a panicking job
// is deterministic, not transient. Re-attempts draw from a shared global
// Budget: before each backoff the loop must win a token, and an exhausted
// budget ends the loop with the last error wrapped in ErrBudgetExhausted.
// A nil budget never runs dry.
func RetryBudget(ctx context.Context, p Policy, b *Budget, fn func(ctx context.Context) error) error {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	var err error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return fmt.Errorf("%w (last error: %v)", cerr, err)
			}
			return cerr
		}
		err = Safe(func() error { return fn(ctx) })
		if err == nil {
			return nil
		}
		var pe *PanicError
		if IsPermanent(err) || errors.As(err, &pe) {
			return err
		}
		if attempt == p.MaxAttempts-1 {
			break
		}
		if !b.Take() {
			return fmt.Errorf("%w after %d attempt(s): %w", ErrBudgetExhausted, attempt+1, err)
		}
		t := time.NewTimer(p.Backoff(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("%w (last error: %v)", ctx.Err(), err)
		case <-t.C:
		}
	}
	return fmt.Errorf("resilience: %d attempts failed: %w", p.MaxAttempts, err)
}

// RunWithTimeout enforces a per-job deadline (0 = none) around fn,
// recovering panics into *PanicError. fn receives the derived context and
// is expected to honor its cancellation; jobs that return because the
// deadline fired surface context.DeadlineExceeded.
func RunWithTimeout(ctx context.Context, timeout time.Duration, fn func(ctx context.Context) error) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return Safe(func() error { return fn(ctx) })
}
