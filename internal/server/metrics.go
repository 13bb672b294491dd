package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/perfmodel"
)

// SessionMetrics is the GET /sessions/{id}/metrics payload: stream
// progress, the headline ratios the paper's evaluation plots, the modelled
// speedup when the workload names a Table 2 profile, and the full embedded
// Result so programmatic clients (and the HTTP/offline parity test) get
// every counter the offline simulator would print.
type SessionMetrics struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	State    string `json:"state"`

	// Stream progress.
	Ingested   int    `json:"ingested"`
	Committed  uint64 `json:"committed"`
	Target     int    `json:"target"`
	QueueDepth int    `json:"queue_depth"`
	Loops      int    `json:"loops"`
	Finished   bool   `json:"stream_finished"`

	// Robustness counters.
	Throttled     uint64 `json:"throttled_batches"`
	RejectedRate  uint64 `json:"rejected_rate"`
	RejectedQueue uint64 `json:"rejected_queue"`

	// Headline ratios, live from the race-safe snapshot path.
	L1HitRatio  float64 `json:"l1_tlb_hit_ratio"`
	L2HitRatio  float64 `json:"l2_tlb_hit_ratio"`
	AvgPenalty  float64 `json:"avg_penalty_cycles"`
	WalkElim    float64 `json:"walk_elimination_rate"`
	POMHitRatio float64 `json:"pom_dram_hit_ratio"`
	IPC         float64 `json:"ipc"`

	// ModelledImprovementPct is Figure 8's y-axis for this session's
	// scheme penalty, present when the workload names a Table 2 profile
	// and the scheme is not the baseline.
	ModelledImprovementPct *float64 `json:"modelled_improvement_pct,omitempty"`

	Result core.Result `json:"result"`
	Error  string      `json:"error,omitempty"`
}

func (s *Server) handleSessionMetrics(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, s.sessionMetrics(sess))
}

func (s *Server) sessionMetrics(sess *session) SessionMetrics {
	// State first: the worker publishes its final Result before it leaves
	// the running state, so a finished state always comes with the final
	// Result, never a live snapshot one chunk stale.
	state := sess.getState()
	res, emsg := sess.result()
	ing, _, backlog, loops, fin := sess.gen.stat()
	m := SessionMetrics{
		ID:       sess.id,
		Tenant:   sess.tenant,
		Workload: sess.workload,
		Mode:     sess.cfg.Mode.String(),
		State:    state.String(),

		Ingested:   ing,
		Committed:  sess.committed.Snapshot(),
		Target:     sess.target(),
		QueueDepth: backlog,
		Loops:      loops,
		Finished:   fin,

		Throttled:     sess.throttled.Snapshot(),
		RejectedRate:  sess.rejRate.Snapshot(),
		RejectedQueue: sess.rejQueue.Snapshot(),

		L1HitRatio:  res.L1TLB.Ratio(),
		L2HitRatio:  res.L2TLB.Ratio(),
		AvgPenalty:  res.AvgPenalty(),
		WalkElim:    res.WalkEliminationRate(),
		POMHitRatio: res.POMDRAM.Ratio(),
		IPC:         res.IPC(),

		Result: res,
		Error:  emsg,
	}
	if p, ok := knownProfile(sess.workload); ok && sess.cfg.Mode != core.Baseline {
		in := perfmodel.FromProfile(p, sess.cfg.Virtualized, res.AvgPenalty())
		if imp, err := perfmodel.ImprovementPct(in); err == nil {
			m.ModelledImprovementPct = &imp
		}
	}
	return m
}

// handleMetrics serves the server-wide aggregate in Prometheus text
// exposition format (0.0.4), hand-rendered — the repo takes no client
// library dependency for what is a dozen lines of text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	type row struct {
		id, tenant, state     string
		committed             uint64
		target, backlog, loop int
	}
	rows := make([]row, 0, len(s.sessions))
	active := 0
	for _, sess := range s.sessions {
		if !sess.finished() {
			active++
		}
		_, _, backlog, loops, _ := sess.gen.stat()
		rows = append(rows, row{
			id: sess.id, tenant: sess.tenant, state: sess.getState().String(),
			committed: sess.committed.Snapshot(),
			target:    sess.target(), backlog: backlog, loop: loops,
		})
	}
	draining := s.draining
	s.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })

	var b strings.Builder
	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("pomsimd_sessions_active", "Sessions whose worker has not exited.", active)
	gauge("pomsimd_draining", "1 while the server refuses new work.", boolToInt(draining))
	counter("pomsimd_sessions_total", "Sessions ever created.", s.sessionsTotal.Snapshot())
	counter("pomsimd_sessions_completed_total", "Sessions that reached their reference target.", s.sessionsDone.Snapshot())
	counter("pomsimd_sessions_reaped_total", "Sessions aborted by the idle reaper.", s.sessionsReaped.Snapshot())
	counter("pomsimd_records_ingested_total", "Trace records accepted across all sessions.", s.ingestedTotal.Snapshot())
	counter("pomsimd_records_committed_total", "Trace records simulated across all sessions.", s.committedTotal.Snapshot())
	counter("pomsimd_ingest_throttled_total", "Ingest batches delayed by rate limiting.", s.throttledTotal.Snapshot())

	fmt.Fprintf(&b, "# HELP pomsimd_ingest_rejected_total Ingest requests shed, by reason.\n# TYPE pomsimd_ingest_rejected_total counter\n")
	fmt.Fprintf(&b, "pomsimd_ingest_rejected_total{reason=\"rate\"} %d\n", s.rejectedRate.Snapshot())
	fmt.Fprintf(&b, "pomsimd_ingest_rejected_total{reason=\"queue\"} %d\n", s.rejectedQueue.Snapshot())
	fmt.Fprintf(&b, "pomsimd_ingest_rejected_total{reason=\"cap\"} %d\n", s.rejectedCap.Snapshot())
	fmt.Fprintf(&b, "pomsimd_ingest_rejected_total{reason=\"draining\"} %d\n", s.rejectedDrain.Snapshot())

	fmt.Fprintf(&b, "# HELP pomsimd_session_committed_records Records simulated per session.\n# TYPE pomsimd_session_committed_records gauge\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "pomsimd_session_committed_records{id=%q,tenant=%q,state=%q} %d\n",
			r.id, r.tenant, r.state, r.committed)
	}
	fmt.Fprintf(&b, "# HELP pomsimd_session_queue_depth Un-simulated ingest backlog per session.\n# TYPE pomsimd_session_queue_depth gauge\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "pomsimd_session_queue_depth{id=%q,tenant=%q} %d\n", r.id, r.tenant, r.backlog)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
