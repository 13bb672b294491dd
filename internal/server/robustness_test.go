package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/trace"
)

// TestBucket drives the token bucket through its edge cases on a fake
// clock: the arithmetic is deterministic because the caller owns time.
func TestBucket(t *testing.T) {
	t0 := time.Unix(1000, 0)

	t.Run("zero rate is unlimited", func(t *testing.T) {
		b := newBucket(0, 0, t0)
		for i := 0; i < 100; i++ {
			if d, ok := b.take(t0, 1e9, 0); d != 0 || !ok {
				t.Fatalf("take %d = (%v, %v), want (0, true)", i, d, ok)
			}
		}
	})

	t.Run("burst=1 reserves and sheds", func(t *testing.T) {
		b := newBucket(10, 1, t0)
		if d, ok := b.take(t0, 1, 200*time.Millisecond); d != 0 || !ok {
			t.Fatalf("first record = (%v, %v), want immediate", d, ok)
		}
		// Bucket empty: one token takes 100ms at 10/s — absorbable.
		if d, ok := b.take(t0, 1, 200*time.Millisecond); d != 100*time.Millisecond || !ok {
			t.Fatalf("second record = (%v, %v), want (100ms, true)", d, ok)
		}
		// Tokens now reserved to -1: the next deficit is 2 tokens = 200ms,
		// still within maxWait.
		if d, ok := b.take(t0, 1, 200*time.Millisecond); d != 200*time.Millisecond || !ok {
			t.Fatalf("third record = (%v, %v), want (200ms, true)", d, ok)
		}
		// -2 tokens: 300ms exceeds maxWait — shed without consuming, so the
		// retry hint stays stable across repeated rejected attempts.
		for i := 0; i < 3; i++ {
			if d, ok := b.take(t0, 1, 200*time.Millisecond); d != 300*time.Millisecond || ok {
				t.Fatalf("shed attempt %d = (%v, %v), want (300ms, false)", i, d, ok)
			}
		}
	})

	t.Run("fractional refill accumulates", func(t *testing.T) {
		b := newBucket(3, 1, t0)
		if _, ok := b.take(t0, 1, 0); !ok {
			t.Fatal("initial burst token missing")
		}
		// 100ms at 3/s refills 0.3 tokens — not enough for a record, but
		// the fraction must not be lost between calls.
		if d, ok := b.take(t0.Add(100*time.Millisecond), 1, 0); ok {
			t.Fatalf("0.3 tokens passed a whole record (d=%v)", d)
		}
		if d, ok := b.take(t0.Add(334*time.Millisecond), 1, 0); d != 0 || !ok {
			t.Fatalf("1.002 tokens = (%v, %v), want (0, true)", d, ok)
		}
	})

	t.Run("burst below one is raised", func(t *testing.T) {
		b := newBucket(5, 0.25, t0)
		if d, ok := b.take(t0, 1, 0); d != 0 || !ok {
			t.Fatalf("single record on sub-record burst = (%v, %v), want (0, true)", d, ok)
		}
	})

	t.Run("refill caps at burst", func(t *testing.T) {
		b := newBucket(100, 2, t0)
		if _, ok := b.take(t0.Add(time.Hour), 3, 0); ok {
			t.Fatal("bucket refilled beyond its burst capacity")
		}
	})
}

// TestStreamGenBackpressure pins the bounded-queue contract: append is
// all-or-nothing, blocks only until its deadline, and frees up as the
// consumer pulls.
func TestStreamGenBackpressure(t *testing.T) {
	g := newStreamGen(4)
	recs := trace.Collect(parityGen(), 8)

	if err := g.append(recs[:4], batchThreads(recs[:4]), time.Now().Add(time.Second)); err != nil {
		t.Fatalf("append within cap: %v", err)
	}
	start := time.Now()
	if err := g.append(recs[4:6], batchThreads(recs[4:6]), time.Now().Add(20*time.Millisecond)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("append over cap = %v, want ErrQueueFull", err)
	} else if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Errorf("append gave up after %v, before its deadline", waited)
	}
	if ing, _, _, _, _ := g.stat(); ing != 4 {
		t.Fatalf("failed append was not all-or-nothing: ingested %d, want 4", ing)
	}

	// Two pulls make room for the two-record batch.
	g.Next()
	g.Next()
	if err := g.append(recs[4:6], batchThreads(recs[4:6]), time.Now().Add(time.Second)); err != nil {
		t.Fatalf("append after pulls: %v", err)
	}

	g.finish(1)
	if err := g.append(recs[6:], batchThreads(recs[6:]), time.Now().Add(time.Second)); !errors.Is(err, ErrSessionFinished) {
		t.Fatalf("append after finish = %v, want ErrSessionFinished", err)
	}
	// Finished stream wraps like trace.Replay.
	for i := 0; i < 7; i++ {
		g.Next()
	}
	if _, _, _, loops, _ := g.stat(); loops != 1 {
		t.Errorf("loops = %d after reading past the end, want 1", loops)
	}
}

// TestStreamGenAbortUnwindsNext proves a consumer blocked on an empty
// stream unwinds via the panic that resilience.Safe converts back into an
// error — the session-teardown path.
func TestStreamGenAbortUnwindsNext(t *testing.T) {
	g := newStreamGen(16)
	unwound := make(chan error, 1)
	go func() {
		unwound <- resilience.Safe(func() error {
			g.Next() // blocks: no records, not finished
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond)
	g.abort()
	select {
	case err := <-unwound:
		if !errors.Is(err, errStreamAborted) {
			t.Fatalf("blocked Next unwound with %v, want errStreamAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Next never unwound after abort")
	}
	recs := trace.Collect(parityGen(), 1)
	if err := g.append(recs, batchThreads(recs), time.Now().Add(time.Second)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("append after abort = %v, want ErrSessionClosed", err)
	}
}

// TestHTTPRateLimit pins the 429 + Retry-After path: a tenant over its
// record budget is shed without consuming tokens, and recovers as the
// bucket refills.
func TestHTTPRateLimit(t *testing.T) {
	srv := New(Config{RatePerSec: 1, Burst: 1, MaxThrottle: time.Nanosecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tc := newTestClient(t, ts.URL)
	id := tc.createSession(CreateRequest{Cores: 2})
	recs := trace.Collect(parityGen(), 3)

	// Three records against a one-record burst: the 2-token deficit takes
	// 2s at 1/s, far over MaxThrottle — shed.
	var out struct {
		Accepted int `json:"accepted"`
	}
	status, hdr := tc.do("POST", "/sessions/"+id+"/records",
		bytes.NewReader(encodeTrace(t, recs)), &out)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-rate post: status %d, want 429", status)
	}
	if out.Accepted != 0 {
		t.Errorf("over-rate post accepted %d records, want 0", out.Accepted)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\" (2-token deficit at 1 record/sec)", ra)
	}

	// A single record fits the burst — the rejected attempt consumed
	// nothing.
	status, _ = tc.do("POST", "/sessions/"+id+"/records",
		bytes.NewReader(encodeTrace(t, recs[:1])), nil)
	if status != http.StatusAccepted {
		t.Fatalf("in-budget post: status %d, want 202", status)
	}
}

// TestHTTPQueueBackpressure pins the queue-side 429: a batch that cannot
// fit the configured backlog cap blocks to the enqueue deadline and is
// shed with Retry-After.
func TestHTTPQueueBackpressure(t *testing.T) {
	srv := New(Config{QueueCap: 8, EnqueueWait: 10 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tc := newTestClient(t, ts.URL)
	// A huge warmup target keeps the worker consuming, never finishing.
	id := tc.createSession(CreateRequest{Cores: 2, WarmupRefs: 1 << 20, MaxRefs: 1 << 20})

	// One ingest batch (256 records) can never fit an 8-record cap.
	var out struct {
		Accepted int `json:"accepted"`
	}
	status, hdr := tc.do("POST", "/sessions/"+id+"/records",
		bytes.NewReader(encodeTrace(t, trace.Collect(parityGen(), ingestBatch))), &out)
	if status != http.StatusTooManyRequests {
		t.Fatalf("oversized batch: status %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("queue 429 missing Retry-After")
	}
	if out.Accepted != 0 {
		t.Errorf("shed batch accepted %d records, want 0", out.Accepted)
	}
}

// TestIdleReaper lets a silent session time out and verifies it is
// aborted, removed, and counted.
func TestIdleReaper(t *testing.T) {
	srv := New(Config{IdleTimeout: 30 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tc := newTestClient(t, ts.URL)
	id := tc.createSession(CreateRequest{Cores: 2})
	tc.upload(id, trace.Collect(parityGen(), 64), 64)

	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _ := tc.do("GET", "/sessions/"+id+"/metrics", nil, nil)
		if status == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session was never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "pomsimd_sessions_reaped_total 1") {
		t.Errorf("/metrics does not count the reaped session:\n%s", raw)
	}
}

// TestSoak64Sessions runs 64 concurrent sessions end to end — create,
// chunked upload, finish, completion — then drains the server and asserts
// every goroutine it spawned is gone. Under -race this is the
// concurrency-soundness gate for the whole session plumbing.
func TestSoak64Sessions(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	before := runtime.NumGoroutine()

	srv := New(Config{MaxSessions: 64})
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Timeout: 60 * time.Second}
	recs := trace.Collect(parityGen(), 1_500)

	const sessions = 64
	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- soakSession(client, ts.URL, i, recs)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	ts.Close()
	client.CloseIdleConnections()

	// Goroutines must settle back to (about) the pre-server baseline: the
	// session workers, reaper, and httptest conns are all gone. The slack
	// covers runtime background goroutines that come and go.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after drain: %d now vs %d before\n%s",
				n, before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// soakSession is one tenant's full lifecycle, with plain error returns so
// it can run off the test goroutine.
func soakSession(client *http.Client, base string, i int, recs []trace.Record) error {
	post := func(path string, body io.Reader, out any) (int, error) {
		req, err := http.NewRequest("POST", base+path, body)
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		if out != nil && len(raw) > 0 {
			if err := json.Unmarshal(raw, out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	}

	cr, _ := json.Marshal(CreateRequest{
		Workload:   fmt.Sprintf("soak-%d", i),
		Tenant:     fmt.Sprintf("tenant-%d", i%8),
		Cores:      2,
		WarmupRefs: 500,
		MaxRefs:    2_000,
	})
	var created struct {
		ID string `json:"id"`
	}
	if status, err := post("/sessions", bytes.NewReader(cr), &created); err != nil || status != http.StatusCreated {
		return fmt.Errorf("session %d: create status %d err %v", i, status, err)
	}

	third := len(recs) / 3
	for _, part := range [][]trace.Record{recs[:third], recs[third : 2*third], recs[2*third:]} {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			return err
		}
		for _, r := range part {
			if err := w.Write(r); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		status, err := post("/sessions/"+created.ID+"/records", &buf, nil)
		if err != nil || status != http.StatusAccepted {
			return fmt.Errorf("session %d: upload status %d err %v", i, status, err)
		}
	}
	if status, err := post("/sessions/"+created.ID+"/finish", nil, nil); err != nil || status != http.StatusAccepted {
		return fmt.Errorf("session %d: finish status %d err %v", i, status, err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(base + "/sessions/" + created.ID + "/metrics")
		if err != nil {
			return err
		}
		var m SessionMetrics
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if m.State == "done" {
			if m.Committed != 2_500 {
				return fmt.Errorf("session %d: committed %d, want 2500", i, m.Committed)
			}
			return nil
		}
		if m.State != "running" {
			return fmt.Errorf("session %d: state %s (error %q)", i, m.State, m.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session %d: still running at deadline (%d/%d)", i, m.Committed, m.Target)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
