// Package resilience provides the fault-tolerance primitives the
// simulation campaign layer is built on: panic-to-error conversion with
// stack capture, and per-job deadline enforcement.
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
	"fmt"
	"runtime/debug"
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
