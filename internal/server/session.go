package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/stats"
)

// sessionState is the lifecycle of one tenant session.
type sessionState int32

const (
	stateRunning sessionState = iota
	stateDone                 // reached its reference target; metrics frozen
	stateFailed               // simulation error (bad trace semantics, panic)
	stateAborted              // deleted, reaped, or drained before finishing
)

func (st sessionState) String() string {
	switch st {
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	case stateAborted:
		return "aborted"
	}
	return fmt.Sprintf("state(%d)", int32(st))
}

// session multiplexes one tenant's trace stream onto a pooled simulator
// instance: a dedicated worker goroutine advances the core.System
// incrementally as records arrive through the streamGen, replicating
// core.Run's warmup-reset-measure structure so the final counters match an
// offline run of the same trace exactly.
type session struct {
	id       string
	tenant   string
	workload string
	cfg      core.Config
	sys      *core.System
	gen      *streamGen
	limiter  *bucket

	created    time.Time
	lastActive atomic.Int64 // unix nanos of the last ingest activity

	committed stats.Counter // records the simulation has consumed
	throttled stats.Counter // batches delayed by the rate limiter
	rejRate   stats.Counter // 429s from the rate limiter
	rejQueue  stats.Counter // 429s from queue backpressure

	state  atomic.Int32
	cancel context.CancelFunc
	done   chan struct{}

	mu    sync.Mutex
	live  core.Result // refreshed by the worker after every chunk
	final core.Result // set once the worker exits
	has   bool
	emsg  string
}

func (s *session) setState(st sessionState) { s.state.Store(int32(st)) }
func (s *session) getState() sessionState   { return sessionState(s.state.Load()) }

func (s *session) touch(now time.Time) { s.lastActive.Store(now.UnixNano()) }

// target is the total number of records the session commits before
// freezing: warmup plus measured references, exactly like core.Run.
func (s *session) target() int { return s.cfg.WarmupRefs + s.cfg.MaxRefs }

// run is the session worker: warmup, stats reset, measure, snapshot. It
// executes inside a resilience.Safe envelope so a teardown mid-simulation
// (streamGen panics errStreamAborted to unwind a blocked record pull) or
// a genuine simulator panic degrades this one session, never the server.
func (s *session) run(ctx context.Context, committedTotal *stats.Counter) {
	defer close(s.done)
	err := resilience.Safe(func() error {
		s.sys.SetWorkload(s.workload)
		if err := s.advance(ctx, s.cfg.WarmupRefs, committedTotal); err != nil {
			return err
		}
		s.sys.ResetStats()
		return s.advance(ctx, s.cfg.MaxRefs, committedTotal)
	})

	final := s.sys.Snapshot()
	s.mu.Lock()
	s.final = final
	s.has = true
	switch {
	case err == nil:
		s.setState(stateDone)
	case errors.Is(err, errStreamAborted), errors.Is(err, context.Canceled):
		s.setState(stateAborted)
		s.emsg = "aborted before reaching its reference target"
	case errors.Is(err, errStreamEmpty):
		s.setState(stateFailed)
		s.emsg = "stream finished with no records"
	case errors.Is(err, core.ErrIdleCore):
		s.setState(stateFailed)
		s.emsg = errors.Unwrap(err).Error() // the stream's error, not the panic that carried it
	default:
		s.setState(stateFailed)
		s.emsg = err.Error()
	}
	s.mu.Unlock()
}

// advance drives the System through n records in small chunks, publishing
// progress and a fresh snapshot after each chunk so metrics see it
// promptly. The metrics path must never call sys.Snapshot on a running
// session: a starved stream leaves the worker blocked inside Generator.Next
// while it holds the System's stats mutex, so a concurrent Snapshot would
// block until more records arrived — the cached copy keeps GET
// /sessions/{id}/metrics non-blocking at the cost of being at most one
// chunk stale.
func (s *session) advance(ctx context.Context, n int, committedTotal *stats.Counter) error {
	const chunk = 2048
	for done := 0; done < n; {
		step := min(chunk, n-done)
		if err := s.sys.Advance(ctx, s.gen, step); err != nil {
			return err
		}
		done += step
		s.committed.Add(uint64(step))
		committedTotal.Add(uint64(step))
		live := s.sys.Snapshot()
		s.mu.Lock()
		s.live = live
		s.mu.Unlock()
	}
	return nil
}

// close tears the session down: the worker context is cancelled and the
// stream aborted so a record pull blocked on input unwinds immediately.
// Idempotent; safe to call on finished sessions.
func (s *session) close() {
	s.cancel()
	s.gen.abort()
}

// finished reports whether the worker has exited.
func (s *session) finished() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// result returns the frozen final Result when the worker has exited, or
// the worker's most recent cached snapshot otherwise. It never touches the
// System directly — see advance for why.
func (s *session) result() (core.Result, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.has {
		return s.final, s.emsg
	}
	return s.live, ""
}
