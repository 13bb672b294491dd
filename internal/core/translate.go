package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/pomtlb"
	"repro/internal/tlb"
)

// ResolveLevel identifies where a translation was finally resolved.
type ResolveLevel int

const (
	// ResL1TLB is a per-core L1 TLB hit.
	ResL1TLB ResolveLevel = iota
	// ResL2TLB is a per-core L2 TLB hit.
	ResL2TLB
	// ResL2D is a POM-TLB entry found in the L2 data cache.
	ResL2D
	// ResL3D is a POM-TLB entry found in the shared L3 data cache.
	ResL3D
	// ResPOM is a POM-TLB entry found in the die-stacked DRAM.
	ResPOM
	// ResShared is a Shared_L2 scheme shared-TLB hit.
	ResShared
	// ResTSB is a translation-storage-buffer hit.
	ResTSB
	// ResVictima is a hit in the Victima scheme's cache-resident TLB store.
	ResVictima
	// ResWalk means a full page walk was needed.
	ResWalk

	numResolveLevels
)

// String implements fmt.Stringer.
func (r ResolveLevel) String() string {
	switch r {
	case ResL1TLB:
		return "L1TLB"
	case ResL2TLB:
		return "L2TLB"
	case ResL2D:
		return "L2D$"
	case ResL3D:
		return "L3D$"
	case ResPOM:
		return "POM-TLB"
	case ResShared:
		return "SharedTLB"
	case ResTSB:
		return "TSB"
	case ResVictima:
		return "Victima"
	case ResWalk:
		return "PageWalk"
	}
	return fmt.Sprintf("ResolveLevel(%d)", int(r))
}

// translate resolves va for core c. The core's time cursor (c.now)
// advances through every serial step; the returned latency is exactly the
// cursor advance. It also accumulates the scheme's post-L2-miss penalty,
// which is the quantity Equations (3)–(4) consume.
func (s *System) translate(c *coreState, va addr.VA) (addr.HPA, uint64) {
	t0 := c.now
	if e, ok := c.l1tlb.Lookup(c.vmid, c.pid, va); ok {
		s.res.Resolved[ResL1TLB]++
		return addr.Translate(va, e.PFN, e.Size), 0
	}
	c.now += s.cfg.L1MissPenalty
	if e, ok := c.l2tlb.Lookup(c.vmid, c.pid, va); ok {
		c.l1tlb.Insert(e)
		s.res.Resolved[ResL2TLB]++
		return addr.Translate(va, e.PFN, e.Size), c.now - t0
	}
	c.now += s.cfg.L2MissPenalty

	missStart := c.now
	e := s.scheme.Path(s, c, va)
	s.res.PenaltyCycles += c.now - missStart
	return addr.Translate(va, e.PFN, e.Size), c.now - t0
}

// mustWalk performs the page walk and panics on a fault: every reference
// is demand-mapped before translation, so a fault is a simulator bug.
// Callers use mustWalkAt, which keeps the time cursor consistent.
func (s *System) mustWalk(c *coreState, va addr.VA) tlb.Entry {
	w := s.walk(c, va)
	if !w.OK {
		panic(fmt.Sprintf("core: walk fault for mapped address %v on core %d", va, c.id))
	}
	s.lastWalkLatency = w.Latency
	e := walkEntry(c.vmid, c.pid, va, w)
	if s.selfCheck != nil {
		s.selfCheck.checkWalk(c, va, e, w.Refs)
	}
	return e
}

// baselinePath is the Skylake-like baseline: an L2 TLB miss starts the
// (2D) page walk immediately.
func (s *System) baselinePath(c *coreState, va addr.VA) tlb.Entry {
	e := s.mustWalkAt(c, va)
	c.insertTLBs(e)
	s.res.Resolved[ResWalk]++
	return e
}

// pomPath implements Figure 7: page-size prediction, optional cache
// bypass, L2D$/L3D$ probes of the addressable set, die-stacked DRAM
// access, second-size retry, and finally the page walk.
func (s *System) pomPath(c *coreState, va addr.VA) tlb.Entry {
	useCaches := s.pomCaches
	predSize := c.pred.PredictSize(va)
	bypass := useCaches && !s.cfg.DisableBypassPredictor && c.pred.PredictBypass(va)
	probeCaches := useCaches && !bypass

	// Only the first probe's cache outcome trains the bypass predictor:
	// the predicted size is the one the MMU would have issued.
	entry, found, firstCachesHit := s.pomProbe(c, va, predSize, probeCaches, useCaches)
	if !found {
		entry, found, _ = s.pomProbe(c, va, predSize.Other(), probeCaches, useCaches)
	}

	var out tlb.Entry
	var actual addr.PageSize
	if found {
		actual = entry.Size
		out = tlb.Entry{VM: c.vmid, PID: c.pid, VPN: entry.VPN, PFN: entry.PFN,
			Size: actual, Valid: true}
		if s.cfg.NeighborPrefetch {
			// §6 extension: the burst carried the whole set — install the
			// neighbouring pages' translations into the L2 TLB for free.
			// The set decodes into a stack array with room for the 8
			// ways the associativity ablation reaches: no allocation.
			var buf [8]pomtlb.Entry
			for _, ne := range s.pom.Partition(actual).AppendSet(buf[:0], va, c.vmid) {
				if ne.Valid && ne.VM == c.vmid && ne.PID == c.pid && ne.VPN != entry.VPN {
					c.l2tlb.Insert(tlb.Entry{VM: c.vmid, PID: c.pid,
						VPN: ne.VPN, PFN: ne.PFN, Size: ne.Size, Valid: true})
				}
			}
		}
	} else {
		out = s.mustWalkAt(c, va)
		actual = out.Size
		if actual == addr.Page1G {
			// No 1 GB partition: the translation lives in the L1 huge
			// TLB / unified L2 only.
			c.pred.UpdateSize(va, addr.Page2M)
			c.insertTLBs(out)
			s.res.Resolved[ResWalk]++
			return out
		}
		part := s.pom.Partition(actual)
		part.Insert(pomtlb.Entry{Valid: true, VM: c.vmid, PID: c.pid,
			VPN: va.VPN(actual), PFN: out.PFN, Size: actual})
		// The fill writes the updated set back; off the critical path, so
		// the cursor does not advance.
		setAddr := part.SetAddr(va, c.vmid)
		s.pom.AccessDRAM(c.now, setAddr, part.LinesPerSet(), true)
		if useCaches {
			s.fillL3(c, setAddr.Line(), false, cache.TLBEntry)
			s.fillL2(c, setAddr.Line(), false, cache.TLBEntry)
		}
		s.res.Resolved[ResWalk]++
	}

	c.pred.UpdateSize(va, actual)
	// A disabled bypass predictor is neither consulted nor trained;
	// scoring it would fake Figure 10 accuracy for a predictor that
	// never influenced a probe.
	if useCaches && !s.cfg.DisableBypassPredictor {
		shouldBypass := !firstCachesHit
		if bypass {
			// The caches were skipped; score the decision against what
			// they actually held (an idealized sampling probe).
			line := s.pom.Partition(predSize).SetAddr(va, c.vmid).Line()
			shouldBypass = !(c.l2.Lookup(line) || s.l3.Lookup(line))
		}
		c.pred.UpdateBypass(va, shouldBypass)
	}
	c.insertTLBs(out)
	return out
}

// pomProbe probes one POM-TLB partition for va: the L2D$/L3D$ probes of
// the addressable set (when enabled), then the die-stacked DRAM.
// cachesHit reports whether the set line was found in the data caches —
// the signal the bypass predictor is scored against. A cached set is
// authoritative for its size: a search miss there still ends the probe.
func (s *System) pomProbe(c *coreState, va addr.VA, size addr.PageSize, probeCaches, useCaches bool) (entry pomtlb.Entry, found, cachesHit bool) {
	part := s.pom.Partition(size)
	setAddr := part.SetAddr(va, c.vmid)
	line := setAddr.Line()
	if probeCaches {
		// The MMU issues the set address to the L2D$ first (2.1.3).
		c.now += c.l2.Latency()
		if c.l2.Access(line, false, cache.TLBEntry) {
			s.res.L2DProbe.Hit()
			if e, ok := part.Search(c.vmid, c.pid, va); ok {
				s.res.Resolved[ResL2D]++
				return e, true, true
			}
			return pomtlb.Entry{}, false, true
		}
		s.res.L2DProbe.Miss()
		c.now += s.l3.Latency()
		if s.l3.Access(line, false, cache.TLBEntry) {
			s.res.L3DProbe.Hit()
			s.fillL2(c, line, false, cache.TLBEntry)
			if e, ok := part.Search(c.vmid, c.pid, va); ok {
				s.res.Resolved[ResL3D]++
				return e, true, true
			}
			return pomtlb.Entry{}, false, true
		}
		s.res.L3DProbe.Miss()
	}
	dres := s.pom.AccessDRAM(c.now, setAddr, part.LinesPerSet(), false)
	c.now += dres.Latency
	e, ok := part.Search(c.vmid, c.pid, va)
	s.res.POMDRAM.Record(ok)
	if useCaches {
		// Like data misses, fetched sets fill into the caches — even
		// on the bypass path (bypass skips the lookups, not the fill;
		// without the fill a bypassed region could never become
		// cache-resident again and the predictor would lock in).
		s.fillL3(c, line, false, cache.TLBEntry)
		s.fillL2(c, line, false, cache.TLBEntry)
	}
	if ok {
		s.res.Resolved[ResPOM]++
		return e, true, false
	}
	return pomtlb.Entry{}, false, false
}

// victimaPath implements Victima's dual lookup: the L2 TLB miss probes
// the core's cache-resident TLB store through the L2 data-cache port
// (one L2 latency, charged hit or miss), and only a store miss starts
// the walk. A hit touches the block's real cache line to keep its
// recency honest against competing data; a walk's result is installed
// into a donated block whose line fills the L2 like any TLB-entry fill.
func (s *System) victimaPath(c *coreState, va addr.VA) tlb.Entry {
	if s.vict == nil {
		// Zero donated ways: the scheme degenerates to the exact baseline.
		return s.baselinePath(c, va)
	}
	v := s.vict[c.id]
	c.now += c.l2.Latency()
	if e, si, ok := v.Lookup(c.vmid, c.pid, va); ok {
		if !c.l2.Access(v.Line(si), false, cache.TLBEntry) {
			// The residency invariant says this cannot miss (DropLine
			// empties evicted blocks); restore it defensively so the store
			// and cache cannot drift further apart.
			s.fillL2(c, v.Line(si), false, cache.TLBEntry)
		}
		c.insertTLBs(e)
		s.res.Resolved[ResVictima]++
		return e
	}
	e := s.mustWalkAt(c, va)
	if e.Size != addr.Page1G {
		// No 1 GB slots (same as the POM-TLB's partitions).
		si, _, _ := v.Insert(e)
		s.fillL2(c, v.Line(si), false, cache.TLBEntry)
	}
	c.insertTLBs(e)
	s.res.Resolved[ResWalk]++
	return e
}

// sharedPath is the Shared_L2 comparison scheme: one SRAM TLB with the
// combined capacity of all cores' private L2 TLBs, probed before walking.
func (s *System) sharedPath(c *coreState, va addr.VA) tlb.Entry {
	c.now += s.shared.Latency()
	if e, ok := s.shared.Lookup(c.vmid, c.pid, va); ok {
		c.insertTLBs(e)
		s.res.Resolved[ResShared]++
		return e
	}
	e := s.mustWalkAt(c, va)
	s.shared.Insert(e)
	c.insertTLBs(e)
	s.res.Resolved[ResWalk]++
	return e
}

// tsbProbe issues one TSB probe for va at the given page size: the
// in-memory buffer entry is read through the data caches like any load,
// then looked up logically.
func (s *System) tsbProbe(c *coreState, va addr.VA, size addr.PageSize) (uint64, bool) {
	s.dataAccess(c, s.tsbB.EntryAddr(c.vmid, va, size), false, cache.Data)
	return s.tsbB.Lookup(c.vmid, c.pid, va, size)
}

// tsbPath is the SPARC-style scheme: trap to the OS, probe the
// direct-mapped TSB in memory (through the data caches, like any load) for
// each page size, pay the extra host-dimension access on a virtualized
// hit, and fall back to a software walk.
func (s *System) tsbPath(c *coreState, va addr.VA) tlb.Entry {
	c.now += s.cfg.TSBCfg.TrapCycles
	// The miss handler knows the region's mapping size most of the time;
	// model that with the same page-size predictor the POM-TLB uses.
	size := c.pred.PredictSize(va)
	pfn, ok := s.tsbProbe(c, va, size)
	if !ok {
		size = size.Other()
		pfn, ok = s.tsbProbe(c, va, size)
	}
	if ok {
		if s.cfg.Virtualized {
			// TSB entries are not direct gVA→hPA translations: the miss
			// handler needs a second buffer access for the host dimension.
			s.dataAccess(c, s.tsbB.EntryAddr(c.vmid, va, size), false, cache.Data)
		}
		e := tlb.Entry{VM: c.vmid, PID: c.pid, VPN: va.VPN(size), PFN: pfn,
			Size: size, Valid: true}
		c.pred.UpdateSize(va, size)
		c.insertTLBs(e)
		s.res.Resolved[ResTSB]++
		return e
	}
	e := s.mustWalkAt(c, va)
	c.pred.UpdateSize(va, e.Size)
	c.now += s.cfg.TSBCfg.SoftwareWalkOverhead
	s.tsbB.Insert(c.vmid, c.pid, e.VPN, e.PFN, e.Size)
	// The handler stores the new TTE; charge the store.
	s.dataAccess(c, s.tsbB.EntryAddr(c.vmid, va, e.Size), true, cache.Data)
	c.insertTLBs(e)
	s.res.Resolved[ResWalk]++
	return e
}
