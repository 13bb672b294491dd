package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Result carries every statistic a simulation produced. The fields marked
// with figure numbers are the quantities the paper's evaluation plots.
type Result struct {
	Mode     Mode
	Workload string

	Records uint64
	Insts   uint64
	Cycles  uint64 // slowest core's cycle count

	// L1TLB and L2TLB aggregate all cores' TLB hit/miss counters.
	L1TLB stats.HitMiss
	L2TLB stats.HitMiss

	// PenaltyCycles is the total translation cycles spent after L2 TLB
	// misses; PenaltyCycles / L2TLB.Misses is P_avg of Equation (3)/(4).
	PenaltyCycles uint64

	// Resolved counts where translations completed (Figure 9's levels).
	Resolved [numResolveLevels]uint64

	// L2DProbe/L3DProbe count data-cache probes for POM-TLB sets
	// (Figure 9: L2D$ ≈ 89.7%, L3D$ lower).
	L2DProbe stats.HitMiss
	L3DProbe stats.HitMiss
	// POMDRAM counts associative searches performed at the die-stacked
	// DRAM (Figure 9: ≈ 88%).
	POMDRAM stats.HitMiss

	// SizePred/BypassPred are predictor accuracy counters (Figure 10).
	SizePred   stats.HitMiss
	BypassPred stats.HitMiss

	// Walk aggregates page-walk activity across cores.
	Walk pagetable.WalkStats

	// SharedTLB / TSB counters for the comparison schemes.
	SharedTLB    stats.HitMiss
	TSBLookups   stats.HitMiss
	TSBConflicts uint64

	// Victima aggregates the cache-resident TLB stores' probe counters
	// (Victima mode).
	Victima stats.HitMiss

	// POMDRAMStats carries the die-stacked channel counters (Figure 11's
	// row-buffer hit rate); DDRStats the off-chip channel's.
	POMDRAMStats dram.Stats
	DDRStats     dram.Stats

	// DataLat is the mean data-access latency (translation excluded).
	DataLat stats.Mean

	// L2Cache aggregates the private L2 data caches; L3Cache is the
	// shared L3 (data vs TLB-entry split included).
	L2Cache cache.Stats
	L3Cache cache.Stats

	// L4Cache and L4DRAMStats are populated in L4Cache mode (§2.2
	// trade-off study).
	L4Cache     cache.Stats
	L4DRAMStats dram.Stats

	// DCache and DCacheDRAM are populated in DRAMCache mode: the stacked
	// page-walk cache's tag directory and its die-stacked channel.
	DCache     cache.Stats
	DCacheDRAM dram.Stats

	// CoherenceInvalidations and SnoopTransfers are populated when
	// Config.Coherence is enabled.
	CoherenceInvalidations uint64
	SnoopTransfers         uint64

	// TierRecords/TierSRAMHits/TierWalks/TierPenalty break translation
	// behaviour down by the issuing core's scenario tenant tier
	// (hot/warm/cold, indexed by TierNames). Populated only once a
	// consolidation scenario has assigned tiers via SetCoreTenant;
	// otherwise all zero. TierSRAMHits counts references resolved in the
	// core's own L1/L2 SRAM TLBs; TierWalks counts full page walks;
	// TierPenalty is the post-L2-miss translation cycles attributed to
	// the tier.
	TierRecords  [NumTiers]uint64
	TierSRAMHits [NumTiers]uint64
	TierWalks    [NumTiers]uint64
	TierPenalty  [NumTiers]uint64
}

// AvgPenalty returns P_avg: mean translation cycles per L2 TLB miss.
func (r Result) AvgPenalty() float64 {
	if r.L2TLB.Misses == 0 {
		return 0
	}
	return float64(r.PenaltyCycles) / float64(r.L2TLB.Misses)
}

// WalkEliminationRate returns the fraction of L2 TLB misses that were
// resolved without a page walk (the paper's "99% of page walks can be
// eliminated" claim).
func (r Result) WalkEliminationRate() float64 {
	if r.L2TLB.Misses == 0 {
		return 0
	}
	return 1 - float64(r.Resolved[ResWalk])/float64(r.L2TLB.Misses)
}

// HasTiers reports whether a consolidation scenario populated the
// per-tier breakdown.
func (r Result) HasTiers() bool {
	for _, n := range r.TierRecords {
		if n > 0 {
			return true
		}
	}
	return false
}

// TierShare returns tier t's fraction of the measured records.
func (r Result) TierShare(t int) float64 {
	if r.Records == 0 {
		return 0
	}
	return float64(r.TierRecords[t]) / float64(r.Records)
}

// TierSRAMHitRatio returns the fraction of tier t's references resolved
// in the core's own SRAM TLBs.
func (r Result) TierSRAMHitRatio(t int) float64 {
	if r.TierRecords[t] == 0 {
		return 0
	}
	return float64(r.TierSRAMHits[t]) / float64(r.TierRecords[t])
}

// TierWalkElim returns the fraction of tier t's L2 TLB misses resolved
// without a page walk — the per-tier view of WalkEliminationRate.
func (r Result) TierWalkElim(t int) float64 {
	miss := r.TierRecords[t] - r.TierSRAMHits[t]
	if miss == 0 {
		return 0
	}
	return 1 - float64(r.TierWalks[t])/float64(miss)
}

// TierAvgPenalty returns tier t's mean translation cycles per L2 TLB
// miss — the per-tier view of AvgPenalty.
func (r Result) TierAvgPenalty(t int) float64 {
	miss := r.TierRecords[t] - r.TierSRAMHits[t]
	if miss == 0 {
		return 0
	}
	return float64(r.TierPenalty[t]) / float64(miss)
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// String summarises the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: refs=%d P_avg=%.1f walkElim=%.1f%% L2D$TLB=%.1f%% POM=%.1f%% RBH=%.1f%%",
		r.Workload, r.Mode, r.Records, r.AvgPenalty(), 100*r.WalkEliminationRate(),
		100*r.L2DProbe.Ratio(), 100*r.POMDRAM.Ratio(), 100*r.POMDRAMStats.RowBufferHitRate())
}

// recordRing is a growable power-of-two circular buffer of trace
// records. Each core's ring reaches a stable capacity after the first
// few thousand records and the loop stops allocating — unlike the
// previous slice-of-slices queue, whose head was dropped by reslicing so
// every append eventually grew the backing array again.
type recordRing struct {
	buf  []trace.Record
	head int
	n    int
}

func (r *recordRing) push(rec trace.Record) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = rec
	r.n++
}

func (r *recordRing) pop() (trace.Record, bool) {
	if r.n == 0 {
		return trace.Record{}, false
	}
	rec := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return rec, true
}

func (r *recordRing) grow() {
	nb := make([]trace.Record, max(64, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

// scheduler delivers each core's records in trace order while letting the
// caller always advance the core whose clock is furthest behind — the
// Ramulator-like issue-cadence scheduling of Section 3.2. Without it,
// per-core clocks drift apart and the shared DRAM channels would charge
// phantom queueing waits against whichever core's clock lags.
type scheduler struct {
	g     trace.Generator
	cores int
	rings []recordRing
}

func newScheduler(g trace.Generator, cores int) *scheduler {
	return &scheduler{g: g, cores: cores, rings: make([]recordRing, cores)}
}

// next returns the next record for the given core, buffering other cores'
// records encountered along the way.
func (sc *scheduler) next(core int) trace.Record {
	if rec, ok := sc.rings[core].pop(); ok {
		return rec
	}
	for {
		rec := sc.g.Next()
		c := int(rec.Thread) % sc.cores
		if c == core {
			return rec
		}
		sc.rings[c].push(rec)
	}
}

// ErrIdleCore marks a trace that names no thread for some core. The
// scheduler gives core c only the records whose Thread % Cores == c, and
// it always advances the core whose clock is furthest behind, so a core
// no thread maps to would make it buffer every other core's records
// forever, through each wrap of a replay.
var ErrIdleCore = errors.New("no trace thread maps to the core")

// Threads is the set of trace thread IDs a record stream names: bit t%64
// of word t/64 stands for thread t.
type Threads [4]uint64

// Add puts thread t in the set.
func (s *Threads) Add(t uint8) { s[t/64] |= 1 << (t % 64) }

// CheckCores returns an error wrapping ErrIdleCore that names the first
// of cores cores no thread in the set maps to, or nil when every core
// gets records.
func (s Threads) CheckCores(cores int) error {
	for c := 0; c < cores; c++ {
		idle := true
		for t := c; t < 256 && idle; t += cores {
			idle = s[t/64]&(1<<(t%64)) == 0
		}
		if idle {
			return fmt.Errorf("core: core %d of %d: %w (thread t runs on core t %% %d)", c, cores, ErrIdleCore, cores)
		}
	}
	return nil
}

// minClockCore returns the core with the smallest committed clock.
func (s *System) minClockCore() *coreState {
	min := s.cores[0]
	for _, c := range s.cores[1:] {
		if c.clock < min.clock {
			min = c
		}
	}
	return min
}

// cancelCheckInterval is how many records run between context polls: a
// record costs tens of nanoseconds to simulate, so checking every 1024
// keeps cancellation latency well under a millisecond at negligible cost.
const cancelCheckInterval = 1024

// selfCheckInterval is how many records run between structural invariant
// sweeps when self-checking is enabled. A sweep walks every set of every
// structure, so it is far costlier than a record; every 64 Ki records it
// stays under a few percent of runtime while still catching corruption
// close to where it happened.
const selfCheckInterval = 64 * 1024

// runRecordsLocked runs one batch under the stats mutex, so a concurrent
// Snapshot never observes half-updated counters. The lock is taken once
// per batch (≤ cancelCheckInterval records), not per record, keeping the
// hot path allocation- and contention-free; the deferred unlock also
// releases the mutex when a generator aborts the batch by panicking
// (the server's session-teardown path).
func (s *System) runRecordsLocked(sched *scheduler, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runRecords(sched, n)
}

// runRecords consumes exactly n records through the scheduler — Advance's
// allocation-free inner loop. Boundary events (context polls, scenario
// events, self-check sweeps) are Advance's business: it sizes n so the
// loop body carries no per-record checks. Callers synchronize via
// runRecordsLocked.
func (s *System) runRecords(sched *scheduler, n int) error {
	tiered := s.tierTrack
	for i := 0; i < n; i++ {
		c := s.minClockCore()
		rec := sched.next(c.id)
		if err := s.touch(c, rec.VA, rec.Size); err != nil {
			return fmt.Errorf("core: demand-mapping %v: %w", rec.VA, err)
		}
		// Non-memory instructions retire at IPC 1 (linear model, §3.3).
		c.clock += uint64(rec.Gap)
		c.insts += uint64(rec.Gap) + 1

		c.now = c.clock
		// Per-tier attribution (consolidation scenarios only): deltas of
		// the aggregate counters across translate, charged to the issuing
		// core's tier — integer snapshots only, so the loop stays
		// allocation-free.
		var sramB, walkB, penB uint64
		if tiered {
			sramB = s.res.Resolved[ResL1TLB] + s.res.Resolved[ResL2TLB]
			walkB = s.res.Resolved[ResWalk]
			penB = s.res.PenaltyCycles
		}
		hpa, _ := s.translate(c, rec.VA)
		if tiered {
			t := c.tier
			s.res.TierRecords[t]++
			s.res.TierSRAMHits[t] += s.res.Resolved[ResL1TLB] + s.res.Resolved[ResL2TLB] - sramB
			s.res.TierWalks[t] += s.res.Resolved[ResWalk] - walkB
			s.res.TierPenalty[t] += s.res.PenaltyCycles - penB
		}
		dlat := s.dataAccess(c, hpa, rec.Write, cache.Data)
		s.res.DataLat.Observe(float64(dlat))
		c.clock = c.now
		s.res.Records++
	}
	s.consumed += uint64(n)
	return nil
}

// Run consumes WarmupRefs + MaxRefs records from the generator and
// returns the measured Result. It is the sequence a pomsimd session
// runs: Advance through the warmup on a fresh scheduler, fire the events
// due at the boundary, reset statistics, Advance through the measured
// window, fire the events due at its end, and Snapshot. On cancellation
// it returns the partial Result with an error wrapping ctx.Err().
func (s *System) Run(ctx context.Context, g trace.Generator, workload string) (Result, error) {
	s.SetWorkload(workload)
	s.sched = newScheduler(g, len(s.cores))
	start, total := s.consumed, s.cfg.WarmupRefs+s.cfg.MaxRefs
	err := s.Advance(ctx, g, s.cfg.WarmupRefs)
	if err == nil {
		s.fireDueEvents()
		s.ResetStats()
		err = s.Advance(ctx, g, s.cfg.MaxRefs)
	}
	if err == nil {
		// A scenario's final quantum boundary can coincide with the
		// trace length.
		s.fireDueEvents()
	}
	if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
		err = fmt.Errorf("core: %s interrupted after %d/%d refs: %w",
			workload, s.consumed-start, total, err)
	}
	return s.Snapshot(), err
}

// Advance consumes exactly n records from the generator without any
// warmup bookkeeping or statistics reset — the record loop behind Run,
// and the primitive for callers that drive a system window by window
// (pomsimd sessions, the simbench benchmark). The scheduler (and its
// buffered records) persists across Advance calls on the same generator.
// Between batches it polls ctx, fires due scenario events and, when
// self-checking, sweeps the structural invariants every
// selfCheckInterval consumed records.
func (s *System) Advance(ctx context.Context, g trace.Generator, n int) error {
	if s.sched == nil || s.sched.g != g {
		s.sched = newScheduler(g, len(s.cores))
	}
	for done := 0; done < n; {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		s.fireDueEvents()
		chunk := min(cancelCheckInterval, n-done)
		if gap, ok := s.nextEventGap(); ok && gap > 0 && gap < uint64(chunk) {
			chunk = int(gap)
		}
		if err := s.runRecordsLocked(s.sched, chunk); err != nil {
			return err
		}
		done += chunk
		// A chunk is shorter than the sweep interval, so it crossed a
		// multiple of it exactly when the remainder is below its length.
		if s.selfCheck != nil && s.consumed%selfCheckInterval < uint64(chunk) {
			s.selfCheck.sweep()
		}
	}
	return nil
}

// ResetStats discards accumulated counters while keeping all warmed state
// (cache/TLB/POM contents, predictor training, DRAM bank state) — the
// warmup boundary of Run, exported so incremental drivers (the pomsimd
// session worker) can replicate Run's warmup semantics around Advance.
func (s *System) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	workload := s.res.Workload
	mode := s.res.Mode
	s.res = Result{Workload: workload, Mode: mode}
	for _, c := range s.cores {
		c.l1tlb.Small.ResetStats()
		c.l1tlb.Large.ResetStats()
		c.l1tlb.Huge.ResetStats()
		c.l2tlb.ResetStats()
		c.l1d.ResetStats()
		c.l2.ResetStats()
		c.pred.ResetStats()
		c.walker.ResetStats()
		c.clockAtReset = c.clock
		c.instsAtReset = c.insts
	}
	s.l3.ResetStats()
	for _, ch := range s.ddr {
		ch.ResetStats()
	}
	s.scheme.ResetStats(s)
}

// addCacheStats merges per-core cache counters.
func addCacheStats(dst *cache.Stats, src cache.Stats) {
	for k := range dst.Access {
		dst.Access[k].Add(src.Access[k])
	}
	for k := range dst.Evictions {
		dst.Evictions[k] += src.Evictions[k]
	}
	dst.Writebacks += src.Writebacks
}

// Snapshot returns a point-in-time copy of the Result as it stands now,
// computed without disturbing the accumulating counters, so it is
// idempotent and safe to call repeatedly mid-run. It synchronizes with
// the record loop (and every other counter-mutating path) on the stats
// mutex, so polling it from another goroutine while Advance runs is
// race-free; the poll blocks for at most one record batch — provided
// the generator keeps producing. A generator that blocks mid-batch (a
// starved streaming session) holds the batch, and with it this mutex,
// until input arrives; concurrent pollers of such systems should cache
// snapshots between batches instead (as the pomsimd session worker
// does). All Result fields are value types, so the returned copy shares
// no state with the live system.
func (s *System) Snapshot() Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aggregate()
}

// SetWorkload labels subsequent Snapshot results, mirroring the workload
// argument of Run for Advance-driven sessions.
func (s *System) SetWorkload(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.Workload = name
}

// aggregate merges the component counters into a copy of the running
// Result without mutating it. Caller holds s.mu.
func (s *System) aggregate() Result {
	res := s.res
	for _, c := range s.cores {
		l1 := c.l1tlb.Small.Stats()
		l1.Add(c.l1tlb.Large.Stats())
		l1.Add(c.l1tlb.Huge.Stats())
		res.L1TLB.Add(l1)
		res.L2TLB.Add(c.l2tlb.Stats())
		res.SizePred.Add(c.pred.SizeStats())
		res.BypassPred.Add(c.pred.BypassStats())
		ws := c.walker.Stats()
		res.Walk.Add(ws)
		addCacheStats(&res.L2Cache, c.l2.Stats())
		res.Insts += c.insts - c.instsAtReset
		if cyc := c.clock - c.clockAtReset; cyc > res.Cycles {
			res.Cycles = cyc
		}
	}
	res.L3Cache = s.l3.Stats()
	for _, ch := range s.ddr {
		st := ch.Stats()
		res.DDRStats.Accesses += st.Accesses
		res.DDRStats.RowHits += st.RowHits
		res.DDRStats.RowMisses += st.RowMisses
		res.DDRStats.RowConfl += st.RowConfl
		res.DDRStats.Reads += st.Reads
		res.DDRStats.Writes += st.Writes
		res.DDRStats.TotalWait += st.TotalWait
		res.DDRStats.TotalCycle += st.TotalCycle
	}
	s.scheme.Aggregate(s, &res)
	return res
}
