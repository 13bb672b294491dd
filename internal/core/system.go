package core

import (
	"fmt"
	"sync"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/dramcache"
	"repro/internal/pagetable"
	"repro/internal/pomtlb"
	"repro/internal/tlb"
	"repro/internal/tsb"
	"repro/internal/victima"
	"repro/internal/virt"
)

// coreState is one simulated core: its private TLBs, private caches,
// per-core MMU walker (PSCs + nested TLB) and POM-TLB predictor.
type coreState struct {
	id    int
	clock uint64 // core-local cycle count (committed)
	// now is the in-flight time cursor: while a reference is being
	// processed, every serial access (TLB probe, cache level, DRAM burst)
	// advances now so that downstream accesses see the correct issue time
	// and bus waits are not charged repeatedly.
	now uint64
	// clockAtReset / instsAtReset snapshot the counters at the end of
	// warmup; clocks themselves keep running so DRAM bank/bus timestamps
	// stay consistent.
	clockAtReset uint64
	instsAtReset uint64
	insts        uint64
	l1tlb        *tlb.SplitL1
	l2tlb        *tlb.TLB
	l1d          *cache.Cache
	l2           *cache.Cache
	pred         *pomtlb.Predictor
	walker       *pagetable.Walker
	vm           *virt.VM // nil when running native
	pid          addr.PID
	vmid         addr.VMID
	// table is the current process's page table: vm's guest table of pid,
	// or the native one. NewSystem and SetCoreTenant resolve it, so no
	// record pays a map lookup for it.
	table *pagetable.Table
	// touched is the page the last successful touch covered, its base
	// ORed with its size+1 (0 for none), so a reference repeating it
	// skips the table lookup. resolveTable and Shootdown clear it.
	touched uint64
	// tier is the scenario tenant tier (indexing TierNames) the core's
	// current tenant belongs to; set by SetCoreTenant, meaningful only
	// when a consolidation scenario is attached.
	tier uint8
}

// System is the complete simulated machine.
type System struct {
	cfg   Config
	hyp   *virt.Hypervisor
	vms   []*virt.VM
	cores []*coreState
	l3    *cache.Cache
	ddr   []*dram.Channel
	pom   *pomtlb.TLB
	// pomCaches is set by the pom-tlb scheme's Build: its POM-TLB set
	// lines are probed in the L2/L3 data caches (pom-tlb-nocache leaves
	// it false and goes straight to the die-stacked DRAM).
	pomCaches bool
	tsbB      *tsb.TSB
	// stacked is the die-stacked DRAM cache the l4-cache and dram-cache
	// schemes spend the POM-TLB's silicon on, probed between the L3 and
	// off-chip memory. stackedAll is set by l4-cache's Build: the cache
	// serves every reference, not only page-walk PTE reads.
	stacked    *dramcache.Cache
	stackedAll bool
	// shared is the Shared_L2 scheme's combined SRAM TLB.
	shared *tlb.TLB
	// vict is the Victima mode's per-core cache-resident TLB stores (nil
	// when the mode is off or the donation is zero).
	vict []*victima.Store

	// scheme is the registered translation scheme for cfg.Mode, resolved
	// exactly once at construction so no event path performs a registry
	// lookup — the hot path is a single devirtualizable indirect call.
	scheme Scheme

	// lastWalkLatency threads the most recent walk's latency from
	// mustWalk to the calling scheme path.
	lastWalkLatency uint64

	// selfCheck, when non-nil, is the differential-verification hook
	// enabled by EnableSelfCheck.
	selfCheck *SelfCheck

	// sched persists the record scheduler across Advance calls so buffered
	// per-core records survive window boundaries.
	sched *scheduler

	// mu serializes every counter-mutating path (record batches, stat
	// resets, shootdowns) against Snapshot, so live metrics can be polled
	// from another goroutine mid-run. It is taken once per record batch,
	// never per record.
	mu sync.Mutex

	// events is the scenario schedule installed by SetEvents, sorted by
	// At; nextEvent indexes the first not-yet-fired entry and consumed
	// counts records consumed since construction (warmup included) —
	// the clock events fire against.
	events    []Event
	nextEvent int
	consumed  uint64
	// tierTrack turns on the per-tier accounting in the record loop once
	// any core has been assigned a scenario tier.
	tierTrack bool

	res Result
}

// NewSystem builds the machine for a configuration.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Mode = cfg.Mode.normalize()
	cfg.L2.Priority = cfg.CachePriority
	cfg.L3.Priority = cfg.CachePriority
	s := &System{
		cfg: cfg,
		hyp: virt.NewHypervisor(virt.DefaultConfig()),
		l3:  cache.MustNew(cfg.L3),
	}
	nch := cfg.DDRChannels
	if nch <= 0 {
		nch = 1
	}
	for i := 0; i < nch; i++ {
		s.ddr = append(s.ddr, dram.MustNew(cfg.DDR))
	}
	if cfg.Virtualized {
		for i := 0; i < cfg.VMs; i++ {
			vm, err := s.hyp.NewVM(addr.VMID(i + 1))
			if err != nil {
				return nil, err
			}
			s.vms = append(s.vms, vm)
		}
	}
	s.scheme, _ = SchemeFor(cfg.Mode) // existence checked by Validate
	s.scheme.Build(s)
	for i := 0; i < cfg.Cores; i++ {
		c := &coreState{
			id:    i,
			l1tlb: tlb.DefaultSplitL1(),
			l2tlb: tlb.MustNew(cfg.L2TLB),
			l1d:   cache.MustNew(cfg.L1D),
			l2:    cache.MustNew(cfg.L2),
			pred:  &pomtlb.Predictor{},
			pid:   1,
		}
		c.walker = pagetable.NewWalker(cfg.Walker, s.walkMemFunc(c))
		if cfg.Virtualized {
			c.vm = s.vms[i%len(s.vms)]
			c.vmid = c.vm.ID()
		}
		s.resolveTable(c)
		s.cores = append(s.cores, c)
	}
	s.res.Mode = cfg.Mode
	return s, nil
}

// resolveTable points c.table at the page table of c's current process.
func (s *System) resolveTable(c *coreState) {
	if c.vm != nil {
		c.table = c.vm.GuestTable(c.pid)
	} else {
		c.table = s.hyp.NativeProcess(c.pid)
	}
	c.touched = 0
}

// walkMemFunc returns the MemFunc routing a core's page-table-entry reads
// through its data-cache hierarchy (PTEs are cached like data in x86).
// Walk references are flagged so the dram-cache scheme's die-stacked
// page-walk cache sees them and only them.
func (s *System) walkMemFunc(c *coreState) pagetable.MemFunc {
	return func(a addr.HPA, write bool) uint64 {
		return s.access(c, a, write, cache.Data, true)
	}
}

// dataAccess is access for ordinary (non-walk) references.
func (s *System) dataAccess(c *coreState, a addr.HPA, write bool, kind cache.Kind) uint64 {
	return s.access(c, a, write, kind, false)
}

// access performs one memory access through L1D → L2 → L3 → DRAM at
// the core's current time cursor, advances the cursor by the access
// latency, and returns that latency. kind tags the line for the split
// statistics; walkRef marks page-walk PTE references (the only ones the
// dram-cache scheme's stacked cache serves).
func (s *System) access(c *coreState, a addr.HPA, write bool, kind cache.Kind, walkRef bool) uint64 {
	line := a.Line()
	if write && s.cfg.Coherence {
		s.invalidateOthers(c, line)
	}
	lat := c.l1d.Latency()
	if c.l1d.Access(line, write, kind) {
		c.now += lat
		return lat
	}
	lat += c.l2.Latency()
	if c.l2.Access(line, write, kind) {
		s.fillL1(c, line, write, kind)
		c.now += lat
		return lat
	}
	lat += s.l3.Latency()
	if s.l3.Access(line, write, kind) {
		s.fillL2(c, line, false, kind)
		s.fillL1(c, line, write, kind)
		c.now += lat
		return lat
	}
	if s.cfg.Coherence && s.snoopTransfer(c, line) {
		// Another core's private cache supplied the line (cache-to-cache
		// transfer at shared-cache latency; the owner's copy downgrades).
		lat += s.l3.Latency()
		s.fillL3(c, line, false, kind)
		s.fillL2(c, line, false, kind)
		s.fillL1(c, line, write, kind)
		c.now += lat
		return lat
	}
	stacked := s.stacked != nil && (walkRef || s.stackedAll)
	if stacked {
		// A die-stacked DRAM cache sits between the L3 and off-chip
		// memory; a tag hit costs one die-stacked access.
		if dlat, hit := s.stacked.Probe(c.now+lat, a, write); hit {
			lat += dlat
			s.fillL3(c, line, false, kind)
			s.fillL2(c, line, false, kind)
			s.fillL1(c, line, write, kind)
			c.now += lat
			return lat
		}
	}
	// Miss everywhere: fetch the line from memory (write-allocate).
	lat += s.memFetch(c.now+lat, a, kind)
	if stacked {
		// Fill the stacked cache; its dirty victim retires off chip, both
		// off the critical path.
		if victim, dirty := s.stacked.Fill(c.now, a); dirty {
			va := addr.HPA(victim << addr.CacheLineShift)
			s.ddrFor(va).Access(c.now, va, true)
		}
	}
	s.fillL3(c, line, false, kind)
	s.fillL2(c, line, false, kind)
	s.fillL1(c, line, write, kind)
	c.now += lat
	return lat
}

// invalidateOthers implements the write-invalidate half of the coherence
// protocol: drop every other core's private copies of the line.
func (s *System) invalidateOthers(c *coreState, line uint64) {
	for _, o := range s.cores {
		if o == c {
			continue
		}
		if p1, _ := o.l1d.Invalidate(line); p1 {
			s.res.CoherenceInvalidations++
		}
		if p2, _ := o.l2.Invalidate(line); p2 {
			s.res.CoherenceInvalidations++
		}
	}
}

// snoopTransfer implements the sharing half: a load that missed the shared
// L3 is served by another core's private cache when one holds the line.
func (s *System) snoopTransfer(c *coreState, line uint64) bool {
	for _, o := range s.cores {
		if o == c {
			continue
		}
		if o.l1d.Lookup(line) || o.l2.Lookup(line) {
			s.res.SnoopTransfers++
			return true
		}
	}
	return false
}

// memFetch reads one line from the backing store for the address: the
// POM-TLB's die-stacked channel for addresses inside the TLB, off-chip DDR
// otherwise.
func (s *System) memFetch(now uint64, a addr.HPA, kind cache.Kind) uint64 {
	if s.pom != nil && s.pom.Contains(a) {
		return s.pom.AccessDRAM(now, a.LineBase(), 1, false).Latency
	}
	return s.ddrFor(a).Access(now, a.LineBase(), false).Latency
}

// ddrFor interleaves off-chip channels at cache-line granularity.
func (s *System) ddrFor(a addr.HPA) *dram.Channel {
	return s.ddr[a.Line()%uint64(len(s.ddr))]
}

// memWriteback retires a dirty line to its backing store; off the critical
// path, so no latency is charged to the current access.
func (s *System) memWriteback(now uint64, line uint64) {
	a := addr.HPA(line << addr.CacheLineShift)
	if s.pom != nil && s.pom.Contains(a) {
		s.pom.AccessDRAM(now, a, 1, true)
		return
	}
	s.ddrFor(a).Access(now, a, true)
}

// fillL1/fillL2/fillL3 install lines, propagating dirty victims down the
// write-back hierarchy.
func (s *System) fillL1(c *coreState, line uint64, dirty bool, kind cache.Kind) {
	if ev := c.l1d.Fill(line, dirty, kind); ev.Valid && ev.Dirty {
		s.fillL2(c, ev.Line, true, ev.Kind)
	}
}

func (s *System) fillL2(c *coreState, line uint64, dirty bool, kind cache.Kind) {
	ev := c.l2.Fill(line, dirty, kind)
	if !ev.Valid {
		return
	}
	if s.vict != nil && ev.Kind == cache.TLBEntry {
		// Victima: an evicted TLB block takes its translations with it —
		// the residency invariant (occupied block ⇒ L2-resident line).
		s.vict[c.id].DropLine(ev.Line)
	}
	if ev.Dirty {
		s.fillL3(c, ev.Line, true, ev.Kind)
	}
}

func (s *System) fillL3(c *coreState, line uint64, dirty bool, kind cache.Kind) {
	if ev := s.l3.Fill(line, dirty, kind); ev.Valid && ev.Dirty {
		s.memWriteback(c.now, ev.Line)
	}
}

// mustWalkAt runs the page walk with the core's time cursor advancing
// through each PTE reference (the walker's MemFunc is dataAccess, which
// advances c.now itself); the walker's own PSC/nested-TLB probe cycles are
// added afterwards. Returns the resolved entry; the cursor advance IS the
// walk latency. With WalkPenaltyOverride set, the walk is resolved
// logically and charged at the measured baseline cost instead.
func (s *System) mustWalkAt(c *coreState, va addr.VA) tlb.Entry {
	if s.cfg.WalkPenaltyOverride > 0 {
		c.now += s.cfg.WalkPenaltyOverride
		return s.logicalEntry(c, va)
	}
	before := c.now
	e := s.mustWalk(c, va)
	memAdvance := c.now - before
	if s.lastWalkLatency > memAdvance {
		c.now += s.lastWalkLatency - memAdvance
	}
	return e
}

// logicalEntry resolves a translation from the tables without timing.
func (s *System) logicalEntry(c *coreState, va addr.VA) tlb.Entry {
	if c.vm != nil {
		hpa, size, ok := c.vm.Translate(c.table, va)
		if !ok {
			panic(fmt.Sprintf("core: unmapped address %v on core %d", va, c.id))
		}
		return tlb.Entry{VM: c.vmid, PID: c.pid, VPN: va.VPN(size),
			PFN: hpa.PFN(size), Size: size, Valid: true}
	}
	e, ok := c.table.Lookup(uint64(va))
	if !ok {
		panic(fmt.Sprintf("core: unmapped native address %v on core %d", va, c.id))
	}
	return tlb.Entry{VM: 0, PID: c.pid, VPN: va.VPN(e.Size),
		PFN: e.PFN, Size: e.Size, Valid: true}
}

// touch ensures the OS/hypervisor mapping exists for a reference (demand
// paging, untimed — page-fault cost is outside the paper's model too).
// Under SteadyState, a newly created mapping also seeds the scheme's
// large translation structure, emulating the fully-amortized steady state
// of the paper's 20-billion-instruction traces.
//
// A reference to the page and size the core's previous touch covered
// returns at once: the table only loses a mapping in Shootdown, which
// clears the memo, and Map refuses a size conflict, so the lookup would
// find the page mapped and create (and seed) nothing.
func (s *System) touch(c *coreState, va addr.VA, size addr.PageSize) error {
	page := uint64(va.PageBase(size)) | (uint64(size) + 1)
	if page == c.touched {
		return nil
	}
	var created bool
	var err error
	if c.vm != nil {
		created, err = c.vm.Touch(c.table, va, size)
	} else {
		_, created, err = s.hyp.TouchNative(c.table, va, size)
	}
	if err != nil {
		return err
	}
	c.touched = page
	if created && s.cfg.SteadyState {
		s.seed(c, va)
	}
	return nil
}

// seed installs a freshly-mapped page's translation into the simulated
// scheme's large structure (never into L1/L2 TLBs or data caches).
func (s *System) seed(c *coreState, va addr.VA) {
	e := s.logicalEntry(c, va)
	s.scheme.Seed(s, c, va, e.Size, e.PFN)
}

// walk performs the mode-appropriate page walk for a core.
func (s *System) walk(c *coreState, va addr.VA) pagetable.WalkResult {
	if c.vm != nil {
		return c.walker.Translate2D(c.table, c.vm.EPT(), c.vmid, c.pid, va)
	}
	return c.walker.TranslateNative(c.table, 0, c.pid, va)
}

// insertTLBs installs a resolved translation into the core's L1 and L2
// TLBs (mostly-inclusive: each level replaces independently).
func (c *coreState) insertTLBs(e tlb.Entry) {
	c.l2tlb.Insert(e)
	c.l1tlb.Insert(e)
}

func walkEntry(vmid addr.VMID, pid addr.PID, va addr.VA, w pagetable.WalkResult) tlb.Entry {
	return tlb.Entry{
		VM: vmid, PID: pid,
		VPN: va.VPN(w.Size), PFN: w.HPFN, Size: w.Size, Valid: true,
	}
}

// Shootdown implements the Section 2.2 consistency protocol for one page:
// the mapping is removed from the guest table, every core's L1/L2 TLBs and
// walker acceleration state drop the translation, the POM-TLB (or TSB /
// shared TLB) entry is invalidated, and any cached copies of the POM-TLB
// set line are flushed from the data caches. Returns whether the page was
// actually mapped.
func (s *System) Shootdown(vmid addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	vpn := va.VPN(size)
	var unmapped bool
	if s.cfg.Virtualized {
		if vm, ok := s.hyp.VM(vmid); ok {
			unmapped = vm.Unmap(pid, va, size)
		}
	} else {
		_, unmapped = s.hyp.NativeProcess(pid).Unmap(uint64(va.PageBase(size)))
	}
	for _, c := range s.cores {
		c.l1tlb.InvalidatePage(vmid, pid, vpn, size)
		c.l2tlb.InvalidatePage(vmid, pid, vpn, size)
		// PSCs and the nested TLB may cache stale structure pointers.
		c.walker.InvalidateAll()
		// The page may be the one the core's touch memo holds.
		c.touched = 0
	}
	s.scheme.Shootdown(s, vmid, pid, va, vpn, size)
	return unmapped
}

// ProcessExit flushes every structure holding translations of (vm, pid),
// making the PID safe to recycle (§2.2's "process ID recycling"). Cached
// POM-TLB set lines holding the dead process's entries are conservatively
// dropped from the data caches. Returns the number of entries removed
// from the scheme's large structure.
func (s *System) ProcessExit(vmid addr.VMID, pid addr.PID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.cores {
		c.l1tlb.InvalidateProcess(vmid, pid)
		c.l2tlb.InvalidateProcess(vmid, pid)
		c.walker.InvalidateAll()
	}
	return s.scheme.ProcessExit(s, vmid, pid)
}

// String summarises the system.
func (s *System) String() string {
	return fmt.Sprintf("system{mode=%s cores=%d vms=%d virt=%v}",
		s.cfg.Mode, s.cfg.Cores, len(s.vms), s.cfg.Virtualized)
}
