package server

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Sentinel errors for the ingest queue.
var (
	// ErrQueueFull is returned when a batch cannot be enqueued before the
	// backpressure deadline: the simulation worker is not keeping up with
	// this session's ingest rate. The HTTP layer maps it to 429.
	ErrQueueFull = errors.New("server: session ingest queue full")
	// ErrSessionFinished is returned when records arrive after the stream
	// was finished.
	ErrSessionFinished = errors.New("server: session stream already finished")
	// ErrSessionClosed is returned when records arrive after the session
	// was aborted or reaped.
	ErrSessionClosed = errors.New("server: session closed")
	// ErrUploadCap is returned when a batch would take the session's
	// upload past its record cap. The HTTP layer maps it to 413.
	ErrUploadCap = errors.New("server: session upload cap reached")
)

// errStreamAborted is the panic value streamGen.Fill uses to unwind a
// simulation blocked on input when its session is torn down. The session
// worker runs inside resilience.Safe, which converts the panic into a
// *resilience.PanicError the worker recognizes via errors.Is — the same
// panic-isolation seam the campaign runner uses for faulty cells.
var errStreamAborted = errors.New("server: stream aborted")

// errStreamEmpty unwinds a worker whose stream finished without a single
// record: there is nothing to simulate, not even by wrapping.
var errStreamEmpty = errors.New("server: stream finished with no records")

// streamGen adapts an HTTP ingest stream to trace.Generator for
// core.System.Advance. Three regimes:
//
//   - Open stream: Fill serves what has arrived, in arrival order, and
//     blocks only while nothing has (the scheduler may pull ahead of the
//     commit count while sorting records onto cores, so blocking here —
//     not an error — is the correct handling of a slow client).
//   - Finished stream: Fill wraps around like trace.Replay, so a session
//     whose upload is shorter than its configured reference count behaves
//     exactly like an offline replay of the same trace — the property the
//     HTTP/offline parity test pins.
//   - Closed session: Fill panics errStreamAborted to unwind the blocked
//     simulation (recovered by the worker's resilience.Safe envelope).
//
// Producers (ingest handlers) see bounded-queue backpressure: append
// blocks while the un-pulled backlog exceeds queueCap, up to a deadline,
// then fails with ErrQueueFull. The full record history is retained (16
// bytes per record, like an in-memory replay) because the wrap regime
// needs it; append refuses a batch that would take it past maxRecs.
type streamGen struct {
	mu   sync.Mutex
	more *sync.Cond // consumer side: data arrived, or finish/abort
	room *sync.Cond // producer side: backlog shrank, or finish/abort

	recs     []trace.Record
	i        int // next index Fill serves
	loops    int // wrap count after finish
	queueCap int
	maxRecs  int          // upload cap in records; 0 or below is none
	threads  core.Threads // every thread the upload names

	finished bool
	aborted  bool
	// err fails a finished stream whose upload names no thread for some
	// core: Fill panics it instead of wrapping.
	err error
}

func newStreamGen(queueCap, maxRecs int) *streamGen {
	g := &streamGen{queueCap: queueCap, maxRecs: maxRecs}
	g.more = sync.NewCond(&g.mu)
	g.room = sync.NewCond(&g.mu)
	return g
}

// Next implements trace.Generator as a Fill of one record.
func (g *streamGen) Next() trace.Record {
	var rec [1]trace.Record
	g.Fill(rec[:])
	return rec[0]
}

// Fill implements trace.Generator under one lock per batch: it copies
// what has arrived, up to len(buf), blocking only while nothing has; a
// finished stream wraps and fills all of buf.
func (g *streamGen) Fill(buf []trace.Record) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.i >= len(g.recs) && !g.finished && !g.aborted {
		g.more.Wait()
	}
	if g.aborted {
		panic(errStreamAborted)
	}
	if g.err != nil {
		panic(g.err)
	}
	if len(g.recs) == 0 {
		panic(errStreamEmpty)
	}
	n := 0
	for n < len(buf) {
		if g.i == len(g.recs) {
			if !g.finished {
				break
			}
			g.i = 0
			g.loops++
		}
		k := copy(buf[n:], g.recs[g.i:])
		n += k
		g.i += k
	}
	g.room.Broadcast()
	return n
}

// append enqueues a batch that names threads, blocking while the
// un-pulled backlog would exceed queueCap, until the deadline passes. The
// whole batch is accepted or none of it is; one that would take the
// upload past maxRecs is refused at once, under the same lock that
// appends, so concurrent uploads cannot overshoot the cap.
func (g *streamGen) append(batch []trace.Record, threads core.Threads, deadline time.Time) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		switch {
		case g.aborted:
			return ErrSessionClosed
		case g.finished:
			return ErrSessionFinished
		case g.maxRecs > 0 && len(g.recs)+len(batch) > g.maxRecs:
			return ErrUploadCap
		case len(g.recs)-g.i+len(batch) <= g.queueCap:
			g.recs = append(g.recs, batch...)
			for i, w := range threads {
				g.threads[i] |= w
			}
			g.more.Broadcast()
			return nil
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return ErrQueueFull
		}
		// sync.Cond has no timed wait: arm a one-shot broadcast at the
		// deadline so the loop re-checks and times out precisely.
		t := time.AfterFunc(wait, func() {
			g.mu.Lock()
			g.room.Broadcast()
			g.mu.Unlock()
		})
		g.room.Wait()
		t.Stop()
	}
}

// finish marks the end of the upload: Fill switches to replay-wrap. An
// upload that names no thread for one of cores cores fails the stream
// instead, since wrapping it would buffer records for that core forever;
// finish returns that error, on every call.
func (g *streamGen) finish(cores int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.finished && len(g.recs) > 0 {
		g.err = g.threads.CheckCores(cores)
	}
	g.finished = true
	g.more.Broadcast()
	g.room.Broadcast()
	return g.err
}

// abort tears the stream down: blocked consumers unwind via panic, blocked
// producers fail with ErrSessionClosed.
func (g *streamGen) abort() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.aborted = true
	g.more.Broadcast()
	g.room.Broadcast()
}

// stat returns (ingested, backlog, loops, finished). Backlog is the
// ingest queue depth: records the scheduler has not pulled yet, so a
// session reads ahead of its commit count by at most one scheduler batch
// plus its per-core rings. Once the stream is finished the remaining
// records are a replay tail, not a queue, so it reports 0.
func (g *streamGen) stat() (ingested, backlog, loops int, finished bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	backlog = len(g.recs) - g.i
	if g.finished {
		backlog = 0
	}
	return len(g.recs), backlog, g.loops, g.finished
}
