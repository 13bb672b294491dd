package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSafeNoError(t *testing.T) {
	if err := Safe(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestSafePassesError(t *testing.T) {
	want := errors.New("boom")
	if err := Safe(func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestSafeRecoversPanic(t *testing.T) {
	err := Safe(func() error { panic("worker died") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PanicError", err)
	}
	if pe.Value != "worker died" {
		t.Errorf("Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "resilience") {
		t.Errorf("stack not captured:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.String(), "worker died") {
		t.Errorf("String() = %q", pe.String())
	}
}

func TestSafeUnwrapsErrorPanic(t *testing.T) {
	sentinel := errors.New("bad config")
	err := Safe(func() error { panic(sentinel) })
	if !errors.Is(err, sentinel) {
		t.Fatalf("error panic not unwrappable: %v", err)
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond}
	calls := 0
	err := RetryBudget(context.Background(), p, nil, func(context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelay: time.Microsecond}
	calls := 0
	sentinel := errors.New("still failing")
	err := RetryBudget(context.Background(), p, nil, func(context.Context) error {
		calls++
		return sentinel
	})
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	calls := 0
	err := RetryBudget(context.Background(), p, nil, func(context.Context) error {
		calls++
		return Permanent(errors.New("bad input"))
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if !IsPermanent(err) {
		t.Errorf("err not permanent: %v", err)
	}
}

func TestRetryStopsOnPanic(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	calls := 0
	err := RetryBudget(context.Background(), p, nil, func(context.Context) error {
		calls++
		panic("deterministic death")
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (panics are not transient)", calls)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("err = %v", err)
	}
}

func TestRetryHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := RetryBudget(ctx, DefaultPolicy(), nil, func(context.Context) error {
		t.Error("fn should not run under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestRetryCancelledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, BaseDelay: time.Hour} // would sleep forever
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	err := RetryBudget(ctx, p, nil, func(context.Context) error { return errors.New("transient") })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	p := Policy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Jitter: 0.5, Seed: 7}
	for attempt := 0; attempt < 8; attempt++ {
		a := p.Backoff(attempt)
		b := p.Backoff(attempt)
		if a != b {
			t.Errorf("attempt %d: jitter not deterministic (%v vs %v)", attempt, a, b)
		}
		if a > time.Duration(float64(p.MaxDelay)*1.5) {
			t.Errorf("attempt %d: backoff %v exceeds jittered cap", attempt, a)
		}
	}
	if p.Backoff(3) < p.Backoff(0) {
		t.Errorf("backoff should grow: %v then %v", p.Backoff(0), p.Backoff(3))
	}
}

func TestRunWithTimeoutDeadline(t *testing.T) {
	err := RunWithTimeout(context.Background(), time.Millisecond, func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
}

func TestRunWithTimeoutRecoversPanic(t *testing.T) {
	err := RunWithTimeout(context.Background(), time.Second, func(context.Context) error {
		panic("job crashed")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("err = %v", err)
	}
}

func TestRunWithTimeoutZeroMeansNone(t *testing.T) {
	err := RunWithTimeout(context.Background(), 0, func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); ok {
			return errors.New("unexpected deadline")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBudgetTake(t *testing.T) {
	b := NewBudget(2)
	if !b.Take() || !b.Take() {
		t.Fatal("budget of 2 must grant twice")
	}
	if b.Take() {
		t.Fatal("exhausted budget must not grant")
	}
	if b.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", b.Remaining())
	}
	var nilB *Budget
	if !nilB.Take() {
		t.Fatal("nil budget must be unlimited")
	}
}

func TestRetryBudgetStopsWhenExhausted(t *testing.T) {
	b := NewBudget(1)
	calls := 0
	err := RetryBudget(context.Background(), Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}, b,
		func(context.Context) error { calls++; return errors.New("flaky") })
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (first attempt + one budgeted retry)", calls)
	}
}

func TestRetryBudgetSharedAcrossJobs(t *testing.T) {
	b := NewBudget(3)
	p := Policy{MaxAttempts: 10, BaseDelay: time.Microsecond}
	total := 0
	for job := 0; job < 4; job++ {
		RetryBudget(context.Background(), p, b, func(context.Context) error {
			total++
			return errors.New("always fails")
		})
	}
	// 4 first attempts are free; only 3 retries exist in the pool.
	if total != 7 {
		t.Fatalf("total attempts = %d, want 7", total)
	}
}

func TestRetryBudgetPermanentDoesNotConsume(t *testing.T) {
	b := NewBudget(5)
	RetryBudget(context.Background(), Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}, b,
		func(context.Context) error { return Permanent(errors.New("bad config")) })
	if b.Remaining() != 5 {
		t.Fatalf("permanent failure consumed budget: remaining %d", b.Remaining())
	}
}
