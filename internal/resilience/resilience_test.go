package resilience

import (
	"context"
	"errors"
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
