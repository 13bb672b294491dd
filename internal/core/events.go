package core

import (
	"fmt"
	"sort"

	"repro/internal/addr"
)

// NumTiers is the number of scenario tenant tiers (hot/warm/cold) the
// per-tier Result breakdown distinguishes.
const NumTiers = 3

// TierNames labels the scenario tiers, indexed like Result's Tier*
// arrays and SetCoreTenant's tier argument.
var TierNames = [NumTiers]string{"hot", "warm", "cold"}

// Event is one scheduled scenario action: Fire runs once the simulation
// has consumed At records (warmup included, so At counts from the very
// first record Run sees). Fire executes between record batches with the
// stats mutex released — System methods that take the lock themselves
// (Shootdown, ProcessExit, SetCoreTenant, Snapshot) are safe to call.
//
// Events fire at batch boundaries: the run loop clamps batches so a
// boundary lands exactly at every At, which keeps the per-record path
// free of event checks (and allocation-free). Note that At is a
// consumed-record index; the scheduler buffers a bounded number of
// generated records per core, so generation-side positions and At differ
// by that bounded, deterministic smear — scenario layers that pair a
// generator-side plan with an event schedule get tenant switches that
// "drain in-flight work", exactly as gang scheduling on real hosts does.
type Event struct {
	At   uint64
	Fire func(*System)
}

// SetEvents installs the scenario schedule, replacing any previous one.
// Events fire in At order (ties keep the given order). Events whose At
// is already past fire before the next batch.
func (s *System) SetEvents(events []Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append([]Event(nil), events...)
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].At < s.events[j].At })
	s.nextEvent = 0
}

// fireDueEvents runs every event whose At has been reached. Called from
// the run loops between batches with s.mu released.
func (s *System) fireDueEvents() {
	for s.nextEvent < len(s.events) && s.events[s.nextEvent].At <= s.consumed {
		ev := s.events[s.nextEvent]
		s.nextEvent++
		ev.Fire(s)
	}
}

// nextEventGap returns how many records may run before the next
// scheduled event is due. ok is false when no events remain.
func (s *System) nextEventGap() (gap uint64, ok bool) {
	if s.nextEvent >= len(s.events) {
		return 0, false
	}
	at := s.events[s.nextEvent].At
	if at <= s.consumed {
		return 0, true
	}
	return at - s.consumed, true
}

// SetCoreTenant reassigns a core to another tenant's address space — the
// scenario layer's context switch. The core's SRAM TLBs are deliberately
// NOT flushed: entries are VMID/ASID-tagged (the paper's §2 premise), so
// the previous tenant's entries age out by replacement exactly as they
// would in tagged hardware. tier labels the tenant's scenario tier
// (indexing TierNames) for the per-tier Result breakdown; the first call
// switches the breakdown on.
func (s *System) SetCoreTenant(core int, vmid addr.VMID, pid addr.PID, tier uint8) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if core < 0 || core >= len(s.cores) {
		return fmt.Errorf("core: SetCoreTenant: core %d out of range (%d cores)", core, len(s.cores))
	}
	if int(tier) >= NumTiers {
		return fmt.Errorf("core: SetCoreTenant: tier %d out of range (%d tiers)", tier, NumTiers)
	}
	c := s.cores[core]
	if s.cfg.Virtualized {
		vm, ok := s.hyp.VM(vmid)
		if !ok {
			return fmt.Errorf("core: SetCoreTenant: unknown VM %d", vmid)
		}
		c.vm = vm
	}
	c.vmid = vmid
	c.pid = pid
	s.resolveTable(c)
	c.tier = tier
	s.tierTrack = true
	return nil
}
