package core

import (
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/oracle"
	"repro/internal/tlb"
)

// SelfCheck is the differential-verification hook for one System: it owns
// the oracle harness the reference models report into and drives the
// periodic structural invariant sweeps. Enable it on a freshly-built
// System (before any simulation) so the references observe every state
// transition from empty.
type SelfCheck struct {
	h   *oracle.Harness
	sys *System
	// invErr latches the first invariant violation found by a periodic
	// sweep so a mid-run violation is not masked by a clean final state.
	invErr error
	sweeps uint64
}

// EnableSelfCheck attaches a reference model to every production
// structure in the system — all cores' L1/L2 TLBs and private caches, the
// shared L3, every DRAM channel, and the mode's large translation
// structure — and returns the SelfCheck handle. Calling it on a system
// that has already simulated records reports spurious divergences (the
// references never saw the warm state).
func (s *System) EnableSelfCheck() *SelfCheck {
	h := oracle.NewHarness()
	for _, c := range s.cores {
		oracle.NewRefTLB(h, c.l1tlb.Small)
		oracle.NewRefTLB(h, c.l1tlb.Large)
		oracle.NewRefTLB(h, c.l1tlb.Huge)
		oracle.NewRefTLB(h, c.l2tlb)
		oracle.NewRefCache(h, c.l1d)
		oracle.NewRefCache(h, c.l2)
	}
	oracle.NewRefCache(h, s.l3)
	for _, ch := range s.ddr {
		oracle.NewRefDRAM(h, ch)
	}
	sc := &SelfCheck{h: h, sys: s}
	s.scheme.AttachSelfCheck(s, sc)
	s.selfCheck = sc
	return sc
}

// Harness exposes the oracle harness (for tests that inject corruption
// and assert the divergence is caught).
func (sc *SelfCheck) Harness() *oracle.Harness { return sc.h }

// sweep runs one structural invariant pass, latching the first failure.
func (sc *SelfCheck) sweep() {
	sc.sweeps++
	if sc.invErr == nil {
		sc.invErr = sc.sys.CheckInvariants()
	}
}

// Err returns nil when every checked decision agreed, no invariant sweep
// failed, and the final structural state is sound.
func (sc *SelfCheck) Err() error {
	if err := sc.h.Err(); err != nil {
		return err
	}
	if sc.invErr != nil {
		return fmt.Errorf("core: invariant violation during run: %w", sc.invErr)
	}
	return sc.sys.CheckInvariants()
}

// Report summarises the verification outcome for human output.
func (sc *SelfCheck) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "selfcheck: %d decisions checked, %d divergences, %d invariant sweeps",
		sc.h.Decisions(), sc.h.Divergences(), sc.sweeps)
	if msgs := sc.h.Messages(); len(msgs) > 0 {
		fmt.Fprintf(&b, "\n  first divergences:")
		for _, m := range msgs {
			fmt.Fprintf(&b, "\n    %s", m)
		}
	}
	if sc.invErr != nil {
		fmt.Fprintf(&b, "\n  invariant violation: %v", sc.invErr)
	}
	return b.String()
}

// checkWalk cross-checks one resolved page walk against the logical
// translation path (virt's map lookup), which shares no code with the
// radix 2D walker. Walk latency and reference counts are sanity-bounded:
// a 2D walk touches at most 24 PTEs (4 guest levels × (4 nested + 1) +
// 4 final nested).
func (sc *SelfCheck) checkWalk(c *coreState, va addr.VA, got tlb.Entry, refs int) {
	sc.h.Decision()
	want := sc.sys.logicalEntry(c, va)
	if got != want {
		sc.h.Reportf("walker: core %d va %v resolved %+v, reference translation %+v", c.id, va, got, want)
	}
	if refs < 0 || refs > 24 {
		sc.h.Reportf("walker: core %d va %v touched %d PTEs, outside the [0,24] 2D-walk bound", c.id, va, refs)
	}
}

// CheckInvariants validates every structure's internal invariants plus
// the cross-structure inclusion the hierarchy maintains. Returns the
// first violation found, or nil.
func (s *System) CheckInvariants() error {
	for _, c := range s.cores {
		for _, t := range []*tlb.TLB{c.l1tlb.Small, c.l1tlb.Large, c.l1tlb.Huge, c.l2tlb} {
			if err := t.CheckInvariants(); err != nil {
				return fmt.Errorf("core %d: %w", c.id, err)
			}
		}
		for _, cc := range []*cache.Cache{c.l1d, c.l2} {
			if err := cc.CheckInvariants(); err != nil {
				return fmt.Errorf("core %d: %w", c.id, err)
			}
		}
	}
	if err := s.l3.CheckInvariants(); err != nil {
		return err
	}
	for _, ch := range s.ddr {
		if err := ch.CheckInvariants(); err != nil {
			return err
		}
	}
	return s.scheme.CheckInvariants(s)
}

// CheckAccounting validates the Result's conservation identities: every
// record resolves at exactly one level (Figure 9's accounting), every
// L1 miss probes the L2 TLB, and the post-L2-miss resolutions sum to the
// L2 TLB miss count. Returns the first violation found, or nil.
func (r Result) CheckAccounting() error {
	var sum uint64
	for _, n := range r.Resolved {
		sum += n
	}
	if sum != r.Records {
		return fmt.Errorf("core %s/%s: %d resolutions for %d records", r.Workload, r.Mode, sum, r.Records)
	}
	if err := r.L1TLB.CheckConservation("L1TLB", r.Records); err != nil {
		return fmt.Errorf("core %s/%s: %w", r.Workload, r.Mode, err)
	}
	if err := r.L2TLB.CheckConservation("L2TLB", r.L1TLB.Misses); err != nil {
		return fmt.Errorf("core %s/%s: %w", r.Workload, r.Mode, err)
	}
	postMiss := sum - r.Resolved[ResL1TLB] - r.Resolved[ResL2TLB]
	if postMiss != r.L2TLB.Misses {
		return fmt.Errorf("core %s/%s: %d post-L2-miss resolutions for %d L2 TLB misses",
			r.Workload, r.Mode, postMiss, r.L2TLB.Misses)
	}
	// Per-tier attribution (consolidation scenarios). Tier tracking can
	// switch on mid-window, so the tier sum may undercount Records but
	// never exceed it; within a tier, hits and walks must fit inside the
	// tier's own records.
	var tierSum uint64
	for t := 0; t < NumTiers; t++ {
		tierSum += r.TierRecords[t]
		if r.TierSRAMHits[t] > r.TierRecords[t] {
			return fmt.Errorf("core %s/%s: tier %s has %d SRAM hits for %d records",
				r.Workload, r.Mode, TierNames[t], r.TierSRAMHits[t], r.TierRecords[t])
		}
		if r.TierWalks[t] > r.TierRecords[t]-r.TierSRAMHits[t] {
			return fmt.Errorf("core %s/%s: tier %s has %d walks for %d L2 misses",
				r.Workload, r.Mode, TierNames[t], r.TierWalks[t], r.TierRecords[t]-r.TierSRAMHits[t])
		}
	}
	if tierSum > r.Records {
		return fmt.Errorf("core %s/%s: %d tier-attributed records for %d records",
			r.Workload, r.Mode, tierSum, r.Records)
	}
	return nil
}
