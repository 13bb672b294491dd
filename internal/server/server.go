// Package server turns the simulator into simulation-as-a-service: an
// HTTP service that accepts binary trace streams (the trace package's
// POMTRC01 codec as the request body, chunked), multiplexes many
// concurrent tenant sessions onto per-session core.System instances, and
// advances each session incrementally as records arrive — the POM-TLB's
// own consolidation story (one large shared structure serving many
// guests) applied to the simulator itself.
//
// Robustness model:
//   - per-tenant token-bucket rate limiting (records/sec with burst);
//     short waits are absorbed in-handler, long ones shed with 429 +
//     Retry-After
//   - bounded per-session ingest queues exerting backpressure: when the
//     simulation falls behind, ingest blocks up to a deadline and then
//     fails with 429 + Retry-After
//   - per-session idle timeouts (a reaper aborts sessions whose client
//     went away) and a global live-session cap
//   - graceful drain: new sessions and ingest are refused while in-flight
//     sessions finish, with panic isolation and deadline enforcement
//     reused from internal/resilience
//
// Observability: GET /sessions/{id}/metrics serves live per-session
// counters (hit ratios, queue depth, modelled speedup) from the race-safe
// core.System.Snapshot path, and GET /metrics aggregates server totals in
// Prometheus text format.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"context"

	"repro/internal/core"
	"repro/internal/pomtlb"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config tunes the service. Zero values select the defaults below.
type Config struct {
	// MaxSessions caps concurrently live (unfinished) sessions; further
	// creations get 429. Default 64.
	MaxSessions int
	// QueueCap bounds each session's un-pulled ingest backlog in
	// records before backpressure engages. A cap below trace.Batch sheds
	// every full batch outright, which is useful in tests and
	// pathological otherwise. Default 65536.
	QueueCap int
	// EnqueueWait is how long an ingest batch blocks for queue space
	// before the server sheds it with 429 + Retry-After. Default 100ms.
	EnqueueWait time.Duration
	// RatePerSec is the per-tenant token-bucket rate in records/sec;
	// 0 disables rate limiting.
	RatePerSec float64
	// Burst is the token-bucket capacity in records. Default max(Rate, 1).
	Burst float64
	// MaxThrottle is the longest rate-limit wait absorbed inside the
	// handler; longer waits are shed with 429. Default 200ms.
	MaxThrottle time.Duration
	// IdleTimeout reaps sessions with no ingest activity; 0 disables.
	IdleTimeout time.Duration
	// MaxIngestRecords caps a session's total upload (sessions retain
	// their trace in memory, 16 B/record, replay-style). Default 8Mi
	// records (128 MiB); negative disables.
	MaxIngestRecords int

	// now is the clock seam for tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.QueueCap == 0 {
		c.QueueCap = 65536
	}
	if c.EnqueueWait == 0 {
		c.EnqueueWait = 100 * time.Millisecond
	}
	if c.MaxThrottle == 0 {
		c.MaxThrottle = 200 * time.Millisecond
	}
	if c.MaxIngestRecords == 0 {
		c.MaxIngestRecords = 8 << 20
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the simulation service. Create with New, mount Handler into
// an http.Server, and call Drain (graceful) or Close (immediate) on the
// way down.
type Server struct {
	cfg Config
	mux *http.ServeMux

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup // session workers + reaper

	mu       sync.Mutex
	sessions map[string]*session
	limiters map[string]*bucket
	nextID   uint64
	draining bool

	// Aggregate counters for GET /metrics.
	sessionsTotal  stats.Counter
	sessionsDone   stats.Counter
	sessionsReaped stats.Counter
	ingestedTotal  stats.Counter
	committedTotal stats.Counter
	throttledTotal stats.Counter
	rejectedRate   stats.Counter
	rejectedQueue  stats.Counter
	rejectedCap    stats.Counter
	rejectedDrain  stats.Counter
}

// New builds a Server and starts its idle reaper (when configured).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		baseCtx:  ctx,
		stop:     cancel,
		sessions: make(map[string]*session),
		limiters: make(map[string]*bucket),
	}
	s.mux.HandleFunc("POST /sessions", s.handleCreate)
	s.mux.HandleFunc("GET /sessions", s.handleList)
	s.mux.HandleFunc("POST /sessions/{id}/records", s.handleIngest)
	s.mux.HandleFunc("POST /sessions/{id}/finish", s.handleFinish)
	s.mux.HandleFunc("GET /sessions/{id}/metrics", s.handleSessionMetrics)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if cfg.IdleTimeout > 0 {
		s.wg.Add(1)
		go s.reap()
	}
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// CreateRequest configures a new session — the same knobs as the pomsim
// CLI, resolved against core.DefaultConfig (the paper's Table 1 machine).
type CreateRequest struct {
	// Workload labels the session; when it names a Table 2 benchmark the
	// metrics include the modelled speedup for that profile.
	Workload string `json:"workload,omitempty"`
	// Tenant keys the shared rate-limit bucket; sessions of one tenant
	// draw from one bucket. Empty means the shared "default" tenant.
	Tenant     string `json:"tenant,omitempty"`
	Mode       string `json:"mode,omitempty"`
	Cores      int    `json:"cores,omitempty"`
	VMs        int    `json:"vms,omitempty"`
	Native     bool   `json:"native,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	WarmupRefs int    `json:"warmup_refs,omitempty"`
	MaxRefs    int    `json:"max_refs,omitempty"`
	PomMB      uint64 `json:"pom_mb,omitempty"`
}

// buildConfig resolves a CreateRequest into a validated core.Config.
func buildConfig(req CreateRequest) (core.Config, error) {
	cfg := core.DefaultConfig()
	if req.Mode != "" {
		m, err := core.ParseMode(req.Mode)
		if err != nil {
			return cfg, err
		}
		cfg.Mode = m
	}
	if req.Cores != 0 {
		cfg.Cores = req.Cores
	}
	if req.VMs != 0 {
		cfg.VMs = req.VMs
	}
	cfg.Virtualized = !req.Native
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	if req.WarmupRefs != 0 {
		cfg.WarmupRefs = req.WarmupRefs
	}
	if req.MaxRefs != 0 {
		cfg.MaxRefs = req.MaxRefs
	}
	if req.PomMB != 0 {
		size, err := pomtlb.MBToBytes(req.PomMB)
		if err != nil {
			return cfg, err
		}
		cfg.POM.SizeBytes = size
	}
	return cfg, cfg.Validate()
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if r.Body != nil && r.ContentLength != 0 {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields() // a misspelt knob must not run the default
		if err := dec.Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding session config: %v", err))
			return
		}
	}
	cfg, err := buildConfig(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	workload := req.Workload
	if workload == "" {
		workload = "stream"
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejectedDrain.Inc()
		httpError(w, http.StatusServiceUnavailable, "server is draining; no new sessions")
		return
	}
	live := 0
	for _, sess := range s.sessions {
		if !sess.finished() {
			live++
		}
	}
	if live >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.rejectedCap.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session cap reached (%d live sessions)", live))
		return
	}
	s.nextID++
	id := fmt.Sprintf("s-%06d", s.nextID)
	lim, ok := s.limiters[tenant]
	if !ok {
		lim = newBucket(s.cfg.RatePerSec, s.cfg.Burst, s.cfg.now())
		s.limiters[tenant] = lim
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	sess := &session{
		id:       id,
		tenant:   tenant,
		workload: workload,
		cfg:      cfg,
		sys:      sys,
		gen:      newStreamGen(s.cfg.QueueCap, s.cfg.MaxIngestRecords),
		limiter:  lim,
		created:  s.cfg.now(),
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	sess.touch(sess.created)
	s.sessions[id] = sess
	s.sessionsTotal.Inc()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sess.run(ctx, &s.committedTotal)
		if sess.getState() == stateDone {
			s.sessionsDone.Inc()
		}
	}()
	s.mu.Unlock()

	writeJSON(w, http.StatusCreated, map[string]any{
		"id":       id,
		"tenant":   tenant,
		"workload": workload,
		"mode":     cfg.Mode.String(),
		"target":   sess.target(),
	})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	if s.isDraining() {
		s.rejectedDrain.Inc()
		httpError(w, http.StatusServiceUnavailable, "server is draining; ingest refused")
		return
	}
	if sess.finished() {
		httpError(w, http.StatusConflict,
			fmt.Sprintf("session is %s; create a new session to simulate more", sess.getState()))
		return
	}

	tr, err := trace.NewReader(r.Body)
	switch {
	case errors.Is(err, trace.ErrBadMagic):
		httpError(w, http.StatusBadRequest, err.Error())
		return
	case errors.Is(err, trace.ErrTruncated):
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	accepted := 0
	// flush pushes a batch through the tenant rate limit and the bounded
	// session queue; a non-nil status means the request is done.
	flush := func(batch []trace.Record) (int, string) {
		if len(batch) == 0 {
			return 0, ""
		}
		delay, ok := sess.limiter.take(s.cfg.now(), float64(len(batch)), s.cfg.MaxThrottle)
		if !ok {
			s.rejectedRate.Inc()
			sess.rejRate.Inc()
			w.Header().Set("Retry-After", retryAfter(delay))
			return http.StatusTooManyRequests,
				fmt.Sprintf("tenant %q over its record rate; retry in %s", sess.tenant, delay.Round(time.Millisecond))
		}
		if delay > 0 {
			s.throttledTotal.Inc()
			sess.throttled.Inc()
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return http.StatusRequestTimeout, "client went away during throttle"
			}
		}
		if err := sess.gen.append(batch, batchThreads(batch), s.cfg.now().Add(s.cfg.EnqueueWait)); err != nil {
			switch {
			case errors.Is(err, ErrQueueFull):
				s.rejectedQueue.Inc()
				sess.rejQueue.Inc()
				w.Header().Set("Retry-After", retryAfter(s.cfg.EnqueueWait))
				_, backlog, _, _ := sess.gen.stat()
				return http.StatusTooManyRequests,
					fmt.Sprintf("session queue full (%d records behind, cap %d); retry in %s",
						backlog, s.cfg.QueueCap, s.cfg.EnqueueWait)
			case errors.Is(err, ErrUploadCap):
				return http.StatusRequestEntityTooLarge,
					fmt.Sprintf("session upload cap is %d records", s.cfg.MaxIngestRecords)
			case errors.Is(err, ErrSessionFinished):
				return http.StatusConflict, err.Error()
			default:
				return http.StatusGone, err.Error()
			}
		}
		accepted += len(batch)
		s.ingestedTotal.Add(uint64(len(batch)))
		sess.touch(s.cfg.now())
		return 0, ""
	}

	// Records take the limiter and the queue a batch at a time: often
	// enough that both limits act promptly, rarely enough to amortize
	// their locks. The queue takes a batch whole.
	batch := make([]trace.Record, 0, trace.Batch)
	var readErr error
	for {
		rec, err := tr.Read()
		if err != nil {
			readErr = err
			break
		}
		batch = append(batch, rec)
		if len(batch) == trace.Batch {
			if status, msg := flush(batch); status != 0 {
				s.ingestReply(w, sess, status, msg, accepted)
				return
			}
			batch = batch[:0]
		}
	}
	// Whole records before a tear are still good: accept them, then report
	// the tear so the client can resend from the accepted offset.
	if status, msg := flush(batch); status != 0 {
		s.ingestReply(w, sess, status, msg, accepted)
		return
	}
	if readErr != io.EOF {
		status := http.StatusBadRequest
		if errors.Is(readErr, trace.ErrTruncated) {
			status = http.StatusUnprocessableEntity
		}
		s.ingestReply(w, sess, status, readErr.Error(), accepted)
		return
	}
	s.ingestReply(w, sess, http.StatusAccepted, "", accepted)
}

// batchThreads returns the threads an ingest batch names. The handler
// builds the set before it takes the stream mutex, which then only merges
// four words per batch.
func batchThreads(batch []trace.Record) core.Threads {
	var s core.Threads
	for _, rec := range batch {
		s.Add(rec.Thread)
	}
	return s
}

// ingestReply reports how far an upload got alongside the session's
// current stream position, so clients can resume precisely.
func (s *Server) ingestReply(w http.ResponseWriter, sess *session, status int, msg string, accepted int) {
	ing, backlog, _, _ := sess.gen.stat()
	body := map[string]any{
		"accepted":    accepted,
		"ingested":    ing,
		"queue_depth": backlog,
		"committed":   sess.committed.Snapshot(),
	}
	if msg != "" {
		body["error"] = msg
	}
	writeJSON(w, status, body)
}

func (s *Server) handleFinish(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	err := sess.gen.finish(sess.cfg.Cores)
	sess.touch(s.cfg.now())
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     sess.id,
		"state":  sess.getState().String(),
		"target": sess.target(),
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	sess.close()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]map[string]any, 0, len(s.sessions))
	for _, sess := range s.sessions {
		ids = append(ids, map[string]any{
			"id":       sess.id,
			"tenant":   sess.tenant,
			"workload": sess.workload,
			"state":    sess.getState().String(),
		})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sessions": ids})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// lookup fetches a live session by id.
func (s *Server) lookup(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// reap aborts sessions whose client has gone quiet for longer than the
// idle timeout. Finished sessions are left in place (their metrics stay
// queryable) — only silent, unfinished sessions are torn down.
func (s *Server) reap() {
	defer s.wg.Done()
	tick := s.cfg.IdleTimeout / 4
	if tick <= 0 {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
		}
		now := s.cfg.now()
		s.mu.Lock()
		var idle []*session
		for id, sess := range s.sessions {
			if sess.finished() {
				continue
			}
			last := time.Unix(0, sess.lastActive.Load())
			if now.Sub(last) > s.cfg.IdleTimeout {
				idle = append(idle, sess)
				delete(s.sessions, id)
			}
		}
		s.mu.Unlock()
		for _, sess := range idle {
			sess.close()
			s.sessionsReaped.Inc()
		}
	}
}

// Drain gracefully shuts the service down: new sessions and new ingest
// are refused, every open stream is marked finished so in-flight sessions
// run to their reference target (wrapping their uploaded trace exactly
// like an offline replay), and the call blocks until all workers exit or
// ctx fires — at which point the stragglers are aborted. The deadline
// enforcement mirrors internal/resilience.RunWithTimeout's contract:
// workers honor context cancellation, and Drain converts a blown deadline
// into a hard abort rather than a hang.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	for _, sess := range open {
		if ing, _, _, _ := sess.gen.stat(); ing == 0 {
			// Nothing ever arrived: finishing would fail the worker with
			// an empty stream; abort it instead.
			sess.close()
			continue
		}
		sess.gen.finish(sess.cfg.Cores) // an idle-core error fails the session
	}

	workers := make(chan struct{})
	go func() {
		s.waitSessions(open)
		close(workers)
	}()
	var err error
	select {
	case <-workers:
	case <-ctx.Done():
		for _, sess := range open {
			sess.close()
		}
		<-workers
		err = fmt.Errorf("server: drain deadline passed; aborted in-flight sessions: %w", ctx.Err())
	}
	s.stop() // stops the reaper and any remaining worker contexts
	s.wg.Wait()
	return err
}

func (s *Server) waitSessions(open []*session) {
	for _, sess := range open {
		<-sess.done
	}
}

// Close aborts everything immediately (tests, error paths).
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	for _, sess := range open {
		sess.close()
	}
	s.stop()
	s.wg.Wait()
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// retryAfter renders a delay as a whole-seconds Retry-After value, at
// least 1 the way proxies expect.
func retryAfter(d time.Duration) string {
	secs := int(d.Seconds() + 0.999)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
