package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
)

// daemonConns is how many client connections stream at once, each
// owning one session.
const daemonConns = 2

// daemonScale sizes the daemon-ingest workload.
type daemonScale struct {
	cores, warmup     int
	chunks, chunkRecs int
}

func daemonScaleFor(quick bool) daemonScale {
	if quick {
		return daemonScale{cores: 2, warmup: 8_000, chunks: 4, chunkRecs: 4096}
	}
	return daemonScale{cores: 4, warmup: 100_000, chunks: 64, chunkRecs: 4096}
}

// records is one session's upload, and also its reference target, so a
// session never wraps its stream.
func (d daemonScale) records() int { return d.chunks * d.chunkRecs }

// generator is the sessions' input: loop-uniform's trace.
func (d daemonScale) generator(seed uint64) trace.Generator { return uniformTrace(seed, d.cores) }

func (d daemonScale) request(mode core.Mode) server.CreateRequest {
	return server.CreateRequest{Workload: "daemon-ingest", Mode: string(mode), Cores: d.cores,
		WarmupRefs: d.warmup, MaxRefs: d.records() - d.warmup}
}

// offline is the core.Run a session must reproduce exactly.
func (d daemonScale) offline(ctx context.Context, mode core.Mode, recs []trace.Record) (core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.Cores = d.cores
	cfg.WarmupRefs = d.warmup
	cfg.MaxRefs = d.records() - d.warmup
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	return sys.Run(ctx, trace.NewReplay(recs), "daemon-ingest")
}

func runDaemon(ctx context.Context, e *env) (*measurement, []byte, error) {
	sc := daemonScaleFor(e.quick)
	m := newMeasurement()
	m.collect = true
	m.gens = func() ([]trace.Generator, error) { return []trace.Generator{sc.generator(e.seed)}, nil }
	chunks, recs, err := encodeChunks(sc.generator(e.seed), sc.chunks, sc.chunkRecs)
	if err != nil {
		return nil, nil, err
	}
	modes := core.Modes()
	want := map[core.Mode]core.Result{}
	for _, mode := range modes {
		if want[mode], err = sc.offline(ctx, mode, recs); err != nil {
			return nil, nil, fmt.Errorf("%s offline reference: %w", mode, err)
		}
	}

	err = e.rounds(ctx, math.MaxInt, func(ctx context.Context, r int, traced bool, parent int) error {
		if traced {
			runtime.SetBlockProfileRate(1)
			defer runtime.SetBlockProfileRate(0)
		}
		for k := range modes {
			mode := modes[(r+k)%len(modes)]
			p, err := daemonPair(ctx, e, sc, mode, chunks, parent)
			if err != nil {
				return fmt.Errorf("%s sessions: %w", mode, err)
			}
			m.addSetup(p.setup, m.op(mode, uint64(daemonConns*sc.records()), p.wall, traced))
			m.creates = append(m.creates, p.creates...)
			m.posts = append(m.posts, p.posts...)
			if traced {
				m.tracedPosts += len(p.posts)
			}
			m.attempted += len(p.posts) + len(p.sessions)
			m.failed += p.badPosts
			for _, s := range p.sessions {
				if r == 0 {
					m.sim[mode].add(s.Result)
				}
				if s.State != "done" || s.Result != want[mode] {
					m.failed++
					fmt.Fprintf(os.Stderr, "daemon-ingest %s round %d: session %s ended %s (%s); result matches offline run: %v\n",
						mode, r, s.ID, s.State, s.Error, s.Result == want[mode])
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var block []byte
	if e.prof != nil {
		var buf bytes.Buffer
		if err := pprof.Lookup("block").WriteTo(&buf, 0); err != nil {
			return nil, nil, fmt.Errorf("block profile: %w", err)
		}
		block = buf.Bytes()
	}
	return m, block, nil
}

// encodeChunks draws chunks×per records and frames each chunk as one
// POMTRC01 body. It also returns the records decoded back from the
// bodies, which is exactly what the server simulates.
func encodeChunks(g trace.Generator, chunks, per int) ([][]byte, []trace.Record, error) {
	bodies := make([][]byte, chunks)
	var recs []trace.Record
	for i := range bodies {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			return nil, nil, err
		}
		for j := 0; j < per; j++ {
			if err := w.Write(g.Next()); err != nil {
				return nil, nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, nil, err
		}
		bodies[i] = buf.Bytes()
		rd, err := trace.NewReader(bytes.NewReader(bodies[i]))
		if err != nil {
			return nil, nil, err
		}
		for {
			rec, err := rd.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, err
			}
			recs = append(recs, rec)
		}
	}
	return bodies, recs, nil
}

// pairRun is one scheme's round: a fresh server, one session per
// connection, each streaming every chunk in a closed loop.
type pairRun struct {
	setup, wall    time.Duration
	creates, posts []float64 // ms
	badPosts       int
	sessions       []server.SessionMetrics
}

// daemonPair starts a fresh in-process server (under the scheme's
// profile labels, which its goroutines inherit), creates the sessions
// (set-up), then times from the first POST until both sessions are done.
func daemonPair(ctx context.Context, e *env, sc daemonScale, mode core.Mode, chunks [][]byte, parent int) (pairRun, error) {
	var out pairRun
	id := e.spans.begin("pair/"+string(mode), parent)
	defer e.spans.end(id)
	err := e.do(ctx, mode, "window", func(ctx context.Context) error {
		t0 := time.Now()
		srv := server.New(server.Config{})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		clients := make([]*client, daemonConns)
		for i := range clients {
			c := &client{base: ts.URL, http: &http.Client{Transport: &http.Transport{}}, spans: e.spans, parent: id}
			defer c.http.CloseIdleConnections()
			tc := time.Now()
			if err := c.create(ctx, sc.request(mode)); err != nil {
				return err
			}
			out.creates = append(out.creates, msSince(tc))
			clients[i] = c
		}
		out.setup = time.Since(t0)

		t1 := time.Now()
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				c.err = c.session(ctx, chunks)
				c.done = time.Since(t1)
			}(c)
		}
		wg.Wait()
		for _, c := range clients {
			if c.err != nil {
				return c.err
			}
			out.wall = max(out.wall, c.done)
			out.posts = append(out.posts, c.posts...)
			out.badPosts += c.badPosts
			out.sessions = append(out.sessions, c.final)
		}
		return nil
	})
	return out, err
}

// client is one connection's closed-loop uploader.
type client struct {
	base   string
	http   *http.Client
	spans  *spans
	parent int
	id     string

	posts    []float64 // POST /records round trips, ms
	badPosts int       // POSTs not answered 202
	final    server.SessionMetrics
	done     time.Duration
	err      error // transport failure: the run cannot continue
}

func (c *client) create(ctx context.Context, req server.CreateRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var out struct {
		ID string `json:"id"`
	}
	status, err := c.do(ctx, "POST", "/sessions", body, &out)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("create session: status %d", status)
	}
	c.id = out.ID
	return nil
}

// session streams every chunk, finishes the stream and waits for the
// session's worker to exit, keeping its final metrics.
func (c *client) session(ctx context.Context, chunks [][]byte) error {
	path := "/sessions/" + c.id
	for _, chunk := range chunks {
		id := c.spans.begin("http/records", c.parent)
		t0 := time.Now()
		status, err := c.do(ctx, "POST", path+"/records", chunk, nil)
		c.spans.end(id)
		if err != nil {
			return err
		}
		c.posts = append(c.posts, msSince(t0))
		if status != http.StatusAccepted {
			c.badPosts++
		}
	}
	if _, err := c.do(ctx, "POST", path+"/finish", nil, nil); err != nil {
		return err
	}
	id := c.spans.begin("wait", c.parent)
	defer c.spans.end(id)
	deadline := time.Now().Add(time.Minute)
	for {
		var list struct {
			Sessions []struct{ ID, State string } `json:"sessions"`
		}
		if _, err := c.do(ctx, "GET", "/sessions", nil, &list); err != nil {
			return err
		}
		running := false
		for _, s := range list.Sessions {
			running = running || (s.ID == c.id && s.State == "running")
		}
		if !running || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, err := c.do(ctx, "GET", path+"/metrics", nil, &c.final)
	return err
}

// do sends one request and decodes a JSON reply into out (when non-nil),
// draining the body so the connection is reused.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return 0, fmt.Errorf("%s %s: decoding %q: %w", method, path, raw, err)
		}
	}
	return resp.StatusCode, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
