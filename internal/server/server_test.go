package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/trace"
)

// parityGen returns the deterministic trace both sides of the parity test
// replay.
func parityGen() trace.Generator {
	return trace.NewUniform(trace.Params{
		Seed:           23,
		FootprintBytes: 8 << 20,
		LargeFrac:      0.3,
		Threads:        2,
		MeanGap:        6,
		WriteFrac:      0.25,
	})
}

// encodeTrace frames records as one POMTRC01 stream.
func encodeTrace(t testing.TB, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dribbleReader yields at most n bytes per Read, so a request body
// crosses record boundaries mid-record the way a chunked upload does.
type dribbleReader struct {
	data []byte
	n    int
}

func (d *dribbleReader) Read(p []byte) (int, error) {
	if len(d.data) == 0 {
		return 0, io.EOF
	}
	n := min(d.n, min(len(p), len(d.data)))
	copy(p, d.data[:n])
	d.data = d.data[n:]
	return n, nil
}

// testClient wraps the HTTP plumbing the server tests share.
type testClient struct {
	t    testing.TB
	base string
	c    *http.Client
}

func newTestClient(t testing.TB, base string) *testClient {
	return &testClient{t: t, base: base, c: &http.Client{Timeout: 30 * time.Second}}
}

// do sends a request and decodes the JSON response into out (when non-nil).
func (tc *testClient) do(method, path string, body io.Reader, out any) (int, http.Header) {
	tc.t.Helper()
	req, err := http.NewRequest(method, tc.base+path, body)
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tc.t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			tc.t.Fatalf("decoding %s %s response %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// createSession POSTs /sessions and returns the new id.
func (tc *testClient) createSession(req CreateRequest) string {
	tc.t.Helper()
	body, _ := json.Marshal(req)
	var out struct {
		ID string `json:"id"`
	}
	status, _ := tc.do("POST", "/sessions", bytes.NewReader(body), &out)
	if status != http.StatusCreated {
		tc.t.Fatalf("create session: status %d", status)
	}
	return out.ID
}

// upload streams records in independently framed posts of postSize
// records, each body dribbled in 7-byte reads.
func (tc *testClient) upload(id string, recs []trace.Record, postSize int) {
	tc.t.Helper()
	for i := 0; i < len(recs); i += postSize {
		chunk := encodeTrace(tc.t, recs[i:min(i+postSize, len(recs))])
		status, _ := tc.do("POST", "/sessions/"+id+"/records",
			&dribbleReader{data: chunk, n: 7}, nil)
		if status != http.StatusAccepted {
			tc.t.Fatalf("upload post at record %d: status %d", i, status)
		}
	}
}

// finish marks the session's stream complete.
func (tc *testClient) finish(id string) {
	tc.t.Helper()
	if status, _ := tc.do("POST", "/sessions/"+id+"/finish", nil, nil); status != http.StatusAccepted {
		tc.t.Fatalf("finish: status %d", status)
	}
}

// await polls the session until its worker exits, returning the final
// metrics.
func (tc *testClient) await(id string, deadline time.Duration) SessionMetrics {
	tc.t.Helper()
	var m SessionMetrics
	for end := time.Now().Add(deadline); ; {
		status, _ := tc.do("GET", "/sessions/"+id+"/metrics", nil, &m)
		if status != http.StatusOK {
			tc.t.Fatalf("metrics: status %d", status)
		}
		if m.State != "running" {
			return m
		}
		if time.Now().After(end) {
			tc.t.Fatalf("session %s still running after %s (committed %d/%d)",
				id, deadline, m.Committed, m.Target)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPOfflineParity is the end-to-end guarantee of the service: a
// trace streamed over HTTP in small chunked posts produces, for every
// translation scheme, final session counters identical field-for-field to
// an offline core.Run over the same records. Both sides replay the same
// codec-normalized stream: the upload is shorter than warmup+refs, so the
// session wraps it exactly like trace.Replay does offline.
func TestHTTPOfflineParity(t *testing.T) {
	recs := trace.Collect(parityGen(), 30_000)
	wire := encodeTrace(t, recs)

	for _, mode := range []core.Mode{core.Baseline, core.POMTLB, core.SharedL2, core.TSB,
		core.Victima, core.DRAMCache} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Mode = mode
			cfg.Cores = 2
			cfg.WarmupRefs = 10_000
			cfg.MaxRefs = 40_000

			offline, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			replay, err := trace.LoadReplay(bytes.NewReader(wire))
			if err != nil {
				t.Fatal(err)
			}
			want, err := offline.Run(context.Background(), replay, "parity")
			if err != nil {
				t.Fatal(err)
			}

			srv := New(Config{})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			tc := newTestClient(t, ts.URL)

			id := tc.createSession(CreateRequest{
				Workload:   "parity",
				Mode:       mode.String(),
				Cores:      cfg.Cores,
				WarmupRefs: cfg.WarmupRefs,
				MaxRefs:    cfg.MaxRefs,
			})
			tc.upload(id, recs, 512)
			tc.finish(id)
			m := tc.await(id, 30*time.Second)

			if m.State != "done" {
				t.Fatalf("session state = %s (error %q), want done", m.State, m.Error)
			}
			if m.Ingested != len(recs) {
				t.Errorf("ingested %d records, want %d", m.Ingested, len(recs))
			}
			if m.Result != want {
				t.Errorf("HTTP session result diverges from offline Run:\n got %+v\nwant %+v",
					m.Result, want)
			}
			if m.Committed != uint64(cfg.WarmupRefs+cfg.MaxRefs) {
				t.Errorf("committed %d, want %d", m.Committed, cfg.WarmupRefs+cfg.MaxRefs)
			}
			if m.Loops == 0 {
				t.Error("stream never wrapped; the parity test should exercise replay wrap")
			}
		})
	}
}

// TestNativeSessionModelsNativeColumns pins that a bare-metal session
// caps its penalty at Table 2's native baseline (ccomponent: 44 cycles),
// not the virtualized one (1158): a simulated P_avg above 44 models as
// no gain rather than as a slowdown.
func TestNativeSessionModelsNativeColumns(t *testing.T) {
	// A 4 GB uniform footprint of 4 KB pages: native walks miss the
	// caches, so P_avg lands well above 44 cycles.
	recs := trace.Collect(trace.NewUniform(trace.Params{Seed: 5, FootprintBytes: 4 << 30,
		Threads: 2, MeanGap: 6}), 20_000)
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tc := newTestClient(t, ts.URL)

	id := tc.createSession(CreateRequest{Workload: "ccomponent", Mode: "shared-l2", Native: true,
		Cores: 2, WarmupRefs: 10_000, MaxRefs: 10_000})
	tc.upload(id, recs, 4096)
	tc.finish(id)
	m := tc.await(id, 30*time.Second)
	if m.State != "done" {
		t.Fatalf("session state = %s (error %q), want done", m.State, m.Error)
	}
	if m.AvgPenalty <= 44 {
		t.Fatalf("P_avg = %.1f does not exceed the native baseline; the cap goes unexercised", m.AvgPenalty)
	}
	if m.ModelledImprovementPct == nil {
		t.Fatal("no modelled improvement for a Table 2 workload")
	}
	if imp := *m.ModelledImprovementPct; math.Abs(imp) > 1e-9 {
		t.Errorf("modelled improvement = %.2f%%, want 0 (P_avg %.1f capped at 44)", imp, m.AvgPenalty)
	}
}

// TestIngestErrorMapping pins the HTTP status for each trace codec
// failure: not-a-trace bodies are 400s, torn streams 422s — with every
// whole record before the tear still accepted.
func TestIngestErrorMapping(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tc := newTestClient(t, ts.URL)
	id := tc.createSession(CreateRequest{Cores: 2})

	status, _ := tc.do("POST", "/sessions/"+id+"/records",
		strings.NewReader("NOTATRACE-------"), nil)
	if status != http.StatusBadRequest {
		t.Errorf("bad magic: status %d, want 400", status)
	}

	wire := encodeTrace(t, trace.Collect(parityGen(), 5))
	var out struct {
		Accepted int    `json:"accepted"`
		Ingested int    `json:"ingested"`
		Error    string `json:"error"`
	}
	status, _ = tc.do("POST", "/sessions/"+id+"/records",
		bytes.NewReader(wire[:len(wire)-7]), &out)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("torn stream: status %d, want 422", status)
	}
	if out.Accepted != 4 || out.Ingested != 4 {
		t.Errorf("torn stream accepted %d/ingested %d records, want 4/4", out.Accepted, out.Ingested)
	}
	if out.Error == "" {
		t.Error("torn stream reply carries no error message")
	}

	status, _ = tc.do("POST", "/sessions/"+id+"/records", strings.NewReader("POM"), nil)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("short header: status %d, want 422", status)
	}

	// A VA of 2^48 or above would alias its canonical twin: the records
	// before it are accepted, it is refused with 400.
	wire = encodeTrace(t, trace.Collect(parityGen(), 3))
	wire = binary.LittleEndian.AppendUint64(wire, 1<<48|0x10_0000_1000)
	wire = append(wire, make([]byte, 8)...)
	out.Accepted, out.Error = 0, ""
	status, _ = tc.do("POST", "/sessions/"+id+"/records", bytes.NewReader(wire), &out)
	if status != http.StatusBadRequest {
		t.Errorf("non-canonical VA: status %d, want 400", status)
	}
	if out.Accepted != 3 {
		t.Errorf("non-canonical VA: accepted %d records, want the 3 before it", out.Accepted)
	}
	if !strings.Contains(out.Error, "non-canonical") {
		t.Errorf("non-canonical VA: error %q does not name the cause", out.Error)
	}

	status, _ = tc.do("GET", "/sessions/nope/metrics", nil, nil)
	if status != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", status)
	}
}

// TestSessionCapAndDelete exercises the live-session cap and DELETE.
func TestSessionCapAndDelete(t *testing.T) {
	srv := New(Config{MaxSessions: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tc := newTestClient(t, ts.URL)

	a := tc.createSession(CreateRequest{Cores: 2})
	tc.createSession(CreateRequest{Cores: 2})
	body, _ := json.Marshal(CreateRequest{Cores: 2})
	status, hdr := tc.do("POST", "/sessions", bytes.NewReader(body), nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over cap: status %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("over-cap reply missing Retry-After")
	}

	if status, _ := tc.do("DELETE", "/sessions/"+a, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", status)
	}
	tc.createSession(CreateRequest{Cores: 2}) // freed capacity
	if status, _ := tc.do("DELETE", "/sessions/"+a, nil, nil); status != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", status)
	}
}

// TestCreateRejectsUnbuildableConfig pins that a session config the
// simulator cannot build is answered 400 with the reason, not a handler
// panic that drops the connection, and that a 1 TiB table is refused
// before anything allocates it, so the daemon keeps serving.
func TestCreateRejectsUnbuildableConfig(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tc := newTestClient(t, ts.URL)
	for _, c := range []struct{ body, want string }{
		{`{"mode":"l4-cache","pom_mb":3}`, "not a power of two"}, // a 3072-set L4
		{`{"mode":"shared-l2","cores":3}`, "not a power of two"}, // a 384-set shared TLB
		{`{"mode":"pom-tlb","pom_mb":1048576}`, "exceeds the 256 MiB limit"},
		{`{"mode":"l4-cache","pom_mb":1048576}`, "exceeds the 1024 MiB limit"},
		// 2^44 + 16 MB wraps to a 16 MiB table under a bare shift.
		{`{"mode":"pom-tlb","pom_mb":17592186044432}`, "overflows"},
		{`{"vms":70000}`, "16-bit VMID limit"},
		// Misspelt knobs used to be dropped: this made an 8-core session
		// with a 16 MB POM-TLB.
		{`{"mode":"pom-tlb","pom-mb":4,"corez":2}`, `unknown field "pom-mb"`},
		{`{"mode":"pom-tlb","corez":2}`, `unknown field "corez"`},
	} {
		var out struct {
			Error string `json:"error"`
		}
		status, _ := tc.do("POST", "/sessions", strings.NewReader(c.body), &out)
		if status != http.StatusBadRequest || !strings.Contains(out.Error, c.want) {
			t.Errorf("POST /sessions %s: status %d (%q), want 400 with %q", c.body, status, out.Error, c.want)
		}
	}
	tc.createSession(CreateRequest{Cores: 2})
}

// TestDrainRunsSessionsToCompletion pins the graceful-shutdown contract:
// Drain finishes in-flight sessions (wrapping their uploads) and refuses
// new work, and the drained server reports frozen, complete results.
func TestDrainRunsSessionsToCompletion(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tc := newTestClient(t, ts.URL)

	recs := trace.Collect(parityGen(), 4_000)
	id := tc.createSession(CreateRequest{Cores: 2, WarmupRefs: 2_000, MaxRefs: 8_000})
	tc.upload(id, recs, 1_000)
	// No finish: Drain must finish the stream itself.

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	m := tc.await(id, time.Second)
	if m.State != "done" {
		t.Errorf("drained session state = %s (error %q), want done", m.State, m.Error)
	}
	if m.Committed != 10_000 {
		t.Errorf("drained session committed %d, want 10000", m.Committed)
	}

	body, _ := json.Marshal(CreateRequest{Cores: 2})
	if status, _ := tc.do("POST", "/sessions", bytes.NewReader(body), nil); status != http.StatusServiceUnavailable {
		t.Errorf("create during drain: status %d, want 503", status)
	}
	wire := encodeTrace(t, recs[:16])
	if status, _ := tc.do("POST", "/sessions/"+id+"/records", bytes.NewReader(wire), nil); status != http.StatusServiceUnavailable {
		t.Errorf("ingest during drain: status %d, want 503", status)
	}
}

// TestFinishRefusesIdleCore pins that a stream naming no thread for some
// core fails when it is finished, by POST /finish (422) or by Drain,
// instead of wrapping while the scheduler buffers records for the idle
// core until the daemon runs out of memory. Every goroutine the server
// started is gone afterwards.
func TestFinishRefusesIdleCore(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tc := newTestClient(t, ts.URL)

	recs := make([]trace.Record, 10) // all on thread 0, so core 1 of 2 gets none
	for i := range recs {
		recs[i] = trace.Record{VA: addr.VA(i) << 12, Gap: 3, Size: addr.Page4K}
	}
	req := CreateRequest{Cores: 2, WarmupRefs: 10, MaxRefs: 50}
	finished, drained := tc.createSession(req), tc.createSession(req)
	tc.upload(finished, recs, len(recs))
	tc.upload(drained, recs, len(recs))

	var out struct {
		Error string `json:"error"`
	}
	if status, _ := tc.do("POST", "/sessions/"+finished+"/finish", nil, &out); status != http.StatusUnprocessableEntity ||
		!strings.Contains(out.Error, "core 1 of 2") {
		t.Fatalf("finish: status %d (%q), want 422 naming core 1 of 2", status, out.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{finished, drained} {
		if m := tc.await(id, time.Second); m.State != "failed" || !strings.Contains(m.Error, "core 1 of 2") ||
			!strings.Contains(m.Error, core.ErrIdleCore.Error()) {
			t.Errorf("session %s: state %s (%q), want failed naming the idle core", id, m.State, m.Error)
		}
	}

	ts.Close()
	tc.c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now vs %d before\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPrometheusMetrics sanity-checks the aggregate exposition.
func TestPrometheusMetrics(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tc := newTestClient(t, ts.URL)

	id := tc.createSession(CreateRequest{Cores: 2, WarmupRefs: 100, MaxRefs: 400})
	tc.upload(id, trace.Collect(parityGen(), 600), 600)
	tc.finish(id)
	tc.await(id, 10*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, line := range []string{
		"pomsimd_sessions_total 1",
		"pomsimd_sessions_completed_total 1",
		"pomsimd_records_ingested_total 600",
		"pomsimd_records_committed_total 500",
		fmt.Sprintf("pomsimd_session_committed_records{id=%q,tenant=\"default\",state=\"done\"} 500", id),
		"pomsimd_ingest_rejected_total{reason=\"rate\"} 0",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("/metrics missing %q\n%s", line, text)
		}
	}
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Errorf("Content-Type = %q", got)
	}
}
