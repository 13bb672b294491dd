// Package tsb models the SPARC Translation Storage Buffer the paper
// compares against (Section 3.3): a large, direct-mapped, software-managed
// translation buffer in ordinary memory. On a TLB miss the processor traps
// to the OS, dedicated hardware computes the TSB entry address, and the
// miss handler probes the buffer; a TSB miss falls through to a software
// page walk.
//
// The three properties that make the TSB lose to the POM-TLB (Section 4.1)
// are all modelled: the per-miss trap cost, the direct-mapped organization
// (more conflict misses than the POM-TLB's 4-way sets), and the fact that
// TSB entries are not direct guest-VA→host-PA translations, so a
// virtualized lookup needs multiple TSB probes.
package tsb

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/stats"
)

// EntryBytes is the size of one TSB entry (tag + data doubleword pair, as
// in SPARC's 16-byte TTE).
const EntryBytes = 16

// Config sizes the TSB.
type Config struct {
	// SizeBytes is the buffer capacity (compared at 16 MB, same as the
	// POM-TLB, in the paper).
	SizeBytes uint64
	// BaseAddr is where the OS allocated the buffer in physical memory.
	BaseAddr uint64
	// TrapCycles is the cost of entering and leaving the OS miss handler.
	TrapCycles uint64
	// SoftwareWalkOverhead is the extra instruction overhead of a software
	// page walk after a TSB miss, beyond the walk's memory references.
	SoftwareWalkOverhead uint64
}

// DefaultConfig returns the paper's 16 MB TSB with a SPARC-like trap cost.
func DefaultConfig() Config {
	return Config{
		SizeBytes:            16 << 20,
		BaseAddr:             0,
		TrapCycles:           30,
		SoftwareWalkOverhead: 30,
	}
}

// maxSizeBytes bounds SizeBytes. The buffer allocates its 4 KiB slot
// chunks only as inserts reach them, but a workload can still write every
// chunk, so the worst case is one host byte per simulated byte (each 16 B
// TTE is held as its 16 B image) plus 24 B of chunk directory per chunk
// (96 KiB for 16 MiB); an unchecked size from a config file could exhaust
// host memory. 256 MiB is 16× the paper's 16 MB TSB and the POM-TLB's
// limit, so the two in-memory translation structures can be compared at
// every size either allows.
const maxSizeBytes = 256 << 20

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes < EntryBytes:
		return fmt.Errorf("tsb: size %d too small", c.SizeBytes)
	case c.SizeBytes > maxSizeBytes:
		return fmt.Errorf("tsb: %d MiB exceeds the %d MiB limit", c.SizeBytes>>20, maxSizeBytes>>20)
	case c.BaseAddr%addr.CacheLineSize != 0:
		return fmt.Errorf("tsb: base address must be line aligned")
	}
	return nil
}

// A slot is one TTE: a tag word naming the translation and a data word
// carrying it, each 8 bytes as in SPARC's TTE.
//
//	tag   bits 0-35 VPN, 36-37 page size, 40-55 VM ID, 63 valid
//	data  bits 0-39 PFN, 40-55 process ID
const (
	vpnBits   = 36
	sizeShift = 36
	vmShift   = 40
	validBit  = 1 << 63
	pfnBits   = 40
	pidShift  = 40
	pfnMask   = 1<<pfnBits - 1
	// ownerMask selects the tag's valid bit and VM ID.
	ownerMask = validBit | 0xFFFF<<vmShift
)

// tag returns the tag word of (vm, vpn, size)'s translation.
func tag(vm addr.VMID, vpn uint64, size addr.PageSize) uint64 {
	return validBit | uint64(vm)<<vmShift | uint64(size)<<sizeShift | vpn
}

// chunkSlots is how many consecutive slots one storage chunk holds
// (4 KiB).
const chunkSlots = 256

// TSB is the direct-mapped translation storage buffer. Its slots are held
// in chunks of chunkSlots (a buffer of fewer slots has one chunk of its
// own size), each allocated when the first Insert lands in it; a slot of
// an unwritten chunk reads as zero, an invalid TTE, so host memory follows
// the translations the buffer holds, not its simulated capacity.
type TSB struct {
	cfg Config
	// chunks[i/chunkSlots][i%chunkSlots] is slot i's tag and data word;
	// nil until written.
	chunks  [][][2]uint64
	mask    uint64
	lookups stats.HitMiss
	// Conflicts counts inserts that displaced a live entry — the
	// direct-mapped weakness the paper calls out.
	Conflicts uint64
}

// New builds a TSB, reporting configuration errors.
func New(cfg Config) (*TSB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.SizeBytes / EntryBytes
	for n&(n-1) != 0 {
		n &= n - 1
	}
	return &TSB{cfg: cfg, chunks: make([][][2]uint64, (n+chunkSlots-1)/chunkSlots), mask: n - 1}, nil
}

// MustNew is New but panics on invalid configuration — the historical
// behavior, used by call sites whose configuration was already validated.
func MustNew(cfg Config) *TSB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// index computes the direct-mapped slot for a VPN.
func (t *TSB) index(vm addr.VMID, vpn uint64) uint64 {
	return (vpn ^ uint64(vm)) & t.mask
}

// slot returns slot i, or zero while its chunk is unwritten.
func (t *TSB) slot(i uint64) [2]uint64 {
	if c := t.chunks[i/chunkSlots]; c != nil {
		return c[i%chunkSlots]
	}
	return [2]uint64{}
}

// EntryAddr returns the physical address of the slot a page size
// interpretation of va maps to — the address the miss handler loads, which
// therefore travels through the data caches like any other load.
func (t *TSB) EntryAddr(vm addr.VMID, va addr.VA, size addr.PageSize) addr.HPA {
	return addr.HPA(t.cfg.BaseAddr + t.index(vm, va.VPN(size))*EntryBytes)
}

// holds reports whether slot s holds (vm, pid, vpn, size)'s translation.
func holds(s [2]uint64, vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	return s[0] == tag(vm, vpn, size) && s[1]>>pidShift == uint64(pid)
}

// Lookup probes the slot for one page-size interpretation of va, a
// canonical (48-bit) address.
func (t *TSB) Lookup(vm addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize) (pfn uint64, ok bool) {
	vpn := va.VPN(size)
	if s := t.slot(t.index(vm, vpn)); holds(s, vm, pid, vpn, size) {
		t.lookups.Hit()
		return s[1] & pfnMask, true
	}
	t.lookups.Miss()
	return 0, false
}

// Peek reports whether the buffer holds the page's translation without
// touching the lookup statistics — the conformance suite's logical
// residual probe.
func (t *TSB) Peek(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	return holds(t.slot(t.index(vm, vpn)), vm, pid, vpn, size)
}

// Insert stores a resolved translation, displacing whatever lived in the
// slot (direct-mapped: no choice of victim). A VPN or PFN too wide for
// its TTE field is a bug upstream (the trace boundary admits only
// canonical addresses), and panics rather than alias another page.
func (t *TSB) Insert(vm addr.VMID, pid addr.PID, vpn, pfn uint64, size addr.PageSize) {
	if vpn>>vpnBits != 0 || pfn>>pfnBits != 0 {
		panic(fmt.Sprintf("tsb: vpn %#x or pfn %#x does not fit the %d-bit VPN and %d-bit PFN fields",
			vpn, pfn, vpnBits, pfnBits))
	}
	i := t.index(vm, vpn)
	c := &t.chunks[i/chunkSlots]
	if *c == nil {
		*c = make([][2]uint64, min(chunkSlots, t.mask+1))
	}
	s := &(*c)[i%chunkSlots]
	if s[0]&validBit != 0 {
		t.Conflicts++
	}
	*s = [2]uint64{tag(vm, vpn, size), uint64(pid)<<pidShift | pfn}
}

// InvalidatePage removes one translation (shootdown).
func (t *TSB) InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	i := t.index(vm, vpn)
	if !holds(t.slot(i), vm, pid, vpn, size) {
		return false
	}
	t.chunks[i/chunkSlots][i%chunkSlots] = [2]uint64{}
	return true
}

// InvalidateProcess removes every entry of (vm, pid).
func (t *TSB) InvalidateProcess(vm addr.VMID, pid addr.PID) int {
	own := validBit | uint64(vm)<<vmShift
	n := 0
	for _, c := range t.chunks {
		for i := range c {
			if s := &c[i]; s[0]&ownerMask == own && s[1]>>pidShift == uint64(pid) {
				*s = [2]uint64{}
				n++
			}
		}
	}
	return n
}

// Stats returns the lookup hit/miss counters.
func (t *TSB) Stats() stats.HitMiss { return t.lookups }

// ResetStats clears the counters; buffer contents are untouched.
func (t *TSB) ResetStats() {
	t.lookups = stats.HitMiss{}
	t.Conflicts = 0
}
