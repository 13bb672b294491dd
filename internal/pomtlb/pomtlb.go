package pomtlb

import (
	"fmt"
	"math"

	"repro/internal/addr"
	"repro/internal/dram"
)

// Config sizes the POM-TLB.
type Config struct {
	// SizeBytes is the total capacity across both partitions (paper
	// default 16 MB; Section 4.6 shows 8–32 MB changes results <1%).
	SizeBytes uint64
	// SmallFraction is the share of SizeBytes given to the 4 KB-page
	// partition; the rest backs the 2 MB-page partition. The paper sets
	// the split statically and observes exact sizes "do not matter much".
	SmallFraction float64
	// Ways is the set associativity. The paper uses 4 so one set is one
	// 64 B DRAM burst; other values are supported for the ablation bench
	// (sets then span multiple bursts).
	Ways int
	// BaseAddr is the host physical address the small partition is mapped
	// at; the large partition follows immediately after.
	BaseAddr uint64
	// DRAM is the die-stacked channel configuration backing the TLB.
	DRAM dram.Config
}

// DefaultConfig returns the paper's 16 MB, 4-way POM-TLB mapped at the
// bottom of host physical memory on a dedicated die-stacked channel.
func DefaultConfig() Config {
	return Config{
		SizeBytes:     16 << 20,
		SmallFraction: 0.5,
		Ways:          4,
		BaseAddr:      0,
		DRAM:          dram.DieStacked(),
	}
}

// maxSizeBytes bounds SizeBytes. New allocates every entry up front, at
// one byte of host memory per simulated byte (each 16 B slot is held as
// its 16 B image), so an unchecked size from a config file or an HTTP
// request would exhaust host memory before anything could reject it.
// 256 MiB costs 256 MiB of host memory, is 8× the largest POM-TLB the
// paper evaluates (32 MB, §4.6), and fills exactly the low region of host
// physical memory that virt.DefaultConfig reserves for the mapped TLB.
const maxSizeBytes = 256 << 20

// MBToBytes converts a capacity given in MB (MiB), as flags, HTTP
// requests and sweep specs give it, into SizeBytes. It refuses a value
// whose byte count does not fit in 64 bits: a bare mb<<20 would wrap it
// to a small size that passes Validate's limit, or to zero.
func MBToBytes(mb uint64) (uint64, error) {
	if mb > math.MaxUint64>>20 {
		return 0, fmt.Errorf("pomtlb: %d MB overflows a 64-bit byte count", mb)
	}
	return mb << 20, nil
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes == 0:
		return fmt.Errorf("pomtlb: zero size")
	case c.SizeBytes > maxSizeBytes:
		return fmt.Errorf("pomtlb: %d MiB exceeds the %d MiB limit", c.SizeBytes>>20, maxSizeBytes>>20)
	case c.Ways <= 0:
		return fmt.Errorf("pomtlb: ways must be positive")
	case uint64(c.Ways) > c.SizeBytes/EntryBytes:
		// Also keeps Ways*EntryBytes from wrapping to a small set size.
		return fmt.Errorf("pomtlb: a %d-way set exceeds the %d-byte TLB", c.Ways, c.SizeBytes)
	case c.SmallFraction <= 0 || c.SmallFraction >= 1:
		return fmt.Errorf("pomtlb: SmallFraction must be in (0,1)")
	case c.BaseAddr%addr.CacheLineSize != 0:
		return fmt.Errorf("pomtlb: base address must be line aligned")
	}
	sb := c.setBytes()
	small := partitionSets(c.smallBytes(), sb)
	if small == 0 || partitionSets(c.SizeBytes-small*sb, sb) == 0 {
		return fmt.Errorf("pomtlb: %d bytes, a %g share for 4 KB pages, cannot hold one %d-way set in each partition",
			c.SizeBytes, c.SmallFraction, c.Ways)
	}
	if err := c.DRAM.Validate(); err != nil {
		return fmt.Errorf("pomtlb: %w", err)
	}
	return nil
}

// setBytes returns the byte span of one set.
func (c Config) setBytes() uint64 { return uint64(c.Ways) * EntryBytes }

// smallBytes returns the byte span offered to the 4 KB-page partition;
// the large partition gets what the small one leaves of SizeBytes.
func (c Config) smallBytes() uint64 { return uint64(float64(c.SizeBytes) * c.SmallFraction) }

// partitionSets returns how many sets a partition carves out of bytes:
// the whole sets that fit, rounded down to a power of two so the index
// is a simple mask (0 when not even one set fits).
func partitionSets(bytes, setBytes uint64) uint64 {
	n := bytes / setBytes
	for n&(n-1) != 0 {
		n &= n - 1
	}
	return n
}

// Shadow observes every partition mutation in program order. The
// differential oracle (internal/oracle) attaches one per partition and
// replays each operation against an independent way-mirroring 2-bit LRU
// model, flagging any disagreement in hit/miss outcome, victim choice,
// or set placement.
type Shadow interface {
	Search(vm addr.VMID, pid addr.PID, va addr.VA, hit bool, e Entry)
	Insert(e Entry, victim Entry, evicted bool)
	InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, found bool)
	InvalidateProcess(vm addr.VMID, pid addr.PID, n int)
}

// hook wraps an attached Shadow behind a concrete pointer: the
// unobserved hot path pays a single-word nil check instead of a
// two-word interface comparison, and the virtual call sits behind a
// branch the CPU predicts never-taken when no oracle is attached.
type hook struct{ s Shadow }

// Partition is one of the two physically-partitioned structures
// (POM_TLB_Small or POM_TLB_Large): a set-associative array of complete
// translations, mapped at a contiguous physical address range so its sets
// can be cached in the data caches. Every entry is held as its 16-byte
// image in one contiguous array; set i occupies slots[i*ways :
// (i+1)*ways], mirroring the physical layout of Figure 5, so a partition
// costs one host byte per simulated byte.
type Partition struct {
	PageSize addr.PageSize
	base     uint64
	ways     int
	numSets  uint64
	setBytes uint64
	slots    [][2]uint64
	count    int
	shadow   *hook
}

// SetShadow attaches (or, with nil, detaches) a lockstep observer.
func (p *Partition) SetShadow(s Shadow) {
	if s == nil {
		p.shadow = nil
		return
	}
	p.shadow = &hook{s}
}

// newPartition carves partitionSets sets out of the address range at
// base; Config.Validate guarantees at least one.
func newPartition(size addr.PageSize, base uint64, bytes uint64, ways int) *Partition {
	setBytes := uint64(ways) * EntryBytes
	n := partitionSets(bytes, setBytes)
	return &Partition{
		PageSize: size,
		base:     base,
		ways:     ways,
		numSets:  n,
		setBytes: setBytes,
		slots:    make([][2]uint64, n*uint64(ways)),
	}
}

// set returns the ways of set i.
func (p *Partition) set(i uint64) [][2]uint64 {
	w := i * uint64(p.ways)
	return p.slots[w : w+uint64(p.ways)]
}

// Sets returns the number of sets.
func (p *Partition) Sets() uint64 { return p.numSets }

// Entries returns the partition's entry capacity.
func (p *Partition) Entries() uint64 { return p.numSets * uint64(p.ways) }

// SizeBytes returns the partition's mapped byte span.
func (p *Partition) SizeBytes() uint64 { return p.numSets * p.setBytes }

// SetIndex implements Equation (1)'s set mapping: the page-aligned virtual
// address, XORed with the VM ID and shifted by 6, selects the set. The
// net effect of Equation (1)'s ">> 6" on a page-aligned VA is that four
// *consecutive* virtual pages share one 64 B set line. This neighbour
// clustering is what makes the design work: a sweep that misses on pages
// p, p+1, p+2, p+3 fetches one line for all four translations, giving the
// high data-cache hit ratios of Figure 9 and, because 32 sets (128
// consecutive pages) share a DRAM row, the row-buffer locality of
// Figure 11.
func (p *Partition) SetIndex(va addr.VA, vm addr.VMID) uint64 {
	return p.setIndexForVPN(va.VPN(p.PageSize), vm)
}

// setIndexForVPN mirrors SetIndex for callers holding a raw VPN. The VM ID
// is spread by a Knuth multiplicative hash before the XOR: different VMs
// running the same guest VA range must land in different set regions, or
// their identical hot sets would fight for the same 4 ways.
func (p *Partition) setIndexForVPN(vpn uint64, vm addr.VMID) uint64 {
	spread := uint64(vm) * 2654435761
	return (vpn>>2 ^ spread) & (p.numSets - 1)
}

// SetAddr returns the host physical address of the set that va maps to —
// the address the MMU issues to the data caches (Equation 1).
func (p *Partition) SetAddr(va addr.VA, vm addr.VMID) addr.HPA {
	return addr.HPA(p.base + p.SetIndex(va, vm)*p.setBytes)
}

// LinesPerSet returns how many 64 B lines one set spans (1 for the paper's
// 4-way design).
func (p *Partition) LinesPerSet() int {
	return int((p.setBytes + addr.CacheLineSize - 1) / addr.CacheLineSize)
}

// ageAllExcept implements the 2-bit LRU update: the touched way becomes
// age 3, every other valid way in the set decays by one (saturating at 0).
func ageAllExcept(set [][2]uint64, touched int) {
	for i := range set {
		w := &set[i][0]
		if i == touched {
			*w |= lruMask
			continue
		}
		if *w&validBit != 0 && *w&lruMask != 0 {
			*w -= 1 << lruShift
		}
	}
}

// Search probes the set for (vm, pid, va)'s translation, updating LRU bits
// on a hit. The DRAM/cache access cost is accounted by the caller; Search
// is the associative comparison done on the fetched 64 B burst.
func (p *Partition) Search(vm addr.VMID, pid addr.PID, va addr.VA) (Entry, bool) {
	k0, k1 := key(vm, pid, va.VPN(p.PageSize))
	set := p.set(p.SetIndex(va, vm))
	for i := range set {
		if matches(set[i], k0, k1) {
			ageAllExcept(set, i)
			e := DecodeEntry(set[i])
			if p.shadow != nil {
				p.shadow.s.Search(vm, pid, va, true, e)
			}
			return e, true
		}
	}
	if p.shadow != nil {
		p.shadow.s.Search(vm, pid, va, false, Entry{})
	}
	return Entry{}, false
}

// Insert installs a translation resolved by a page walk, evicting the
// lowest-LRU way when the set is full. The paper notes the replacement
// decision needs no extra DRAM access: the LRU bits arrive with the burst.
// An entry whose VPN or PFN does not fit Figure 5's 40-bit fields is a
// bug upstream (the trace boundary admits only canonical addresses), and
// panics rather than alias another page.
func (p *Partition) Insert(e Entry) (victim Entry, evicted bool) {
	if !e.Valid || e.Size != p.PageSize {
		panic(fmt.Sprintf("pomtlb: inserting %v into %s partition", e, p.PageSize))
	}
	if e.VPN>>fieldBits != 0 || e.PFN>>fieldBits != 0 {
		panic(fmt.Sprintf("pomtlb: %v does not fit the 40-bit VPN and PPN fields", e))
	}
	k0, k1 := key(e.VM, e.PID, e.VPN)
	set := p.set(p.SetIndex(addr.VA(e.VPN<<p.PageSize.Shift()), e.VM))
	vi := -1
	for i := range set {
		w := &set[i]
		if matches(*w, k0, k1) {
			w[0] = w[0]&^attrMask | uint64(e.Attr)<<attrShift
			w[1] = w[1]&keyMask1 | e.PFN<<pfnShift
			ageAllExcept(set, i)
			if p.shadow != nil {
				p.shadow.s.Insert(e, Entry{}, false)
			}
			return Entry{}, false
		}
		if w[0]&validBit == 0 {
			if vi == -1 || set[vi][0]&validBit != 0 {
				vi = i
			}
			continue
		}
		if vi == -1 || (set[vi][0]&validBit != 0 && w[0]&lruMask < set[vi][0]&lruMask) {
			vi = i
		}
	}
	if set[vi][0]&validBit != 0 {
		victim, evicted = DecodeEntry(set[vi]), true
	} else {
		p.count++
	}
	set[vi] = e.Encode()
	ageAllExcept(set, vi)
	if p.shadow != nil {
		p.shadow.s.Insert(e, victim, evicted)
	}
	return victim, evicted
}

// InvalidatePage removes one translation (shootdown).
func (p *Partition) InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64) bool {
	k0, k1 := key(vm, pid, vpn)
	set := p.set(p.setIndexForVPN(vpn, vm))
	found := false
	for i := range set {
		if matches(set[i], k0, k1) {
			set[i] = [2]uint64{}
			p.count--
			found = true
			break
		}
	}
	if p.shadow != nil {
		p.shadow.s.InvalidatePage(vm, pid, vpn, found)
	}
	return found
}

// InvalidateProcess removes every entry of (vm, pid), returning the count
// removed — required before the guest OS recycles a process ID (§2.2).
func (p *Partition) InvalidateProcess(vm addr.VMID, pid addr.PID) int {
	own := owner(vm, pid)
	n := 0
	for i := range p.slots {
		if p.slots[i][0]&ownerMask == own {
			p.slots[i] = [2]uint64{}
			p.count--
			n++
		}
	}
	if p.shadow != nil {
		p.shadow.s.InvalidateProcess(vm, pid, n)
	}
	return n
}

// CheckInvariants validates the partition's structural invariants: every
// valid entry sits in the set its (VPN, VM) index to and carries the
// partition's page size, no (vm, pid, vpn) key appears twice, and the
// resident count matches a full recount. Returns the first violation
// found, or nil.
func (p *Partition) CheckInvariants() error {
	type key struct {
		vm  addr.VMID
		pid addr.PID
		vpn uint64
	}
	seen := make(map[key]uint64, p.count)
	n := 0
	for si := uint64(0); si < p.numSets; si++ {
		for wi, w := range p.set(si) {
			e := DecodeEntry(w)
			if !e.Valid {
				continue
			}
			n++
			if e.Size != p.PageSize {
				return fmt.Errorf("pomtlb %s set %d way %d: entry size %s", p.PageSize, si, wi, e.Size)
			}
			if want := p.setIndexForVPN(e.VPN, e.VM); want != uint64(si) {
				return fmt.Errorf("pomtlb %s set %d way %d: vpn %#x indexes to set %d", p.PageSize, si, wi, e.VPN, want)
			}
			k := key{e.VM, e.PID, e.VPN}
			if prev, dup := seen[k]; dup {
				return fmt.Errorf("pomtlb %s set %d: duplicate key %+v (also in set %d)", p.PageSize, si, k, prev)
			}
			seen[k] = uint64(si)
		}
	}
	if n != p.count {
		return fmt.Errorf("pomtlb %s: resident count %d but recount %d", p.PageSize, p.count, n)
	}
	return nil
}

// AppendSet decodes the set va maps to — the translations that arrive
// together in one 64 B burst — appending them to dst. With room in dst
// it allocates nothing, so the record loop's callers (neighbour
// prefetching, §6) decode into a stack array.
func (p *Partition) AppendSet(dst []Entry, va addr.VA, vm addr.VMID) []Entry {
	for _, w := range p.set(p.SetIndex(va, vm)) {
		dst = append(dst, DecodeEntry(w))
	}
	return dst
}

// TLB is the complete POM-TLB: both partitions plus the dedicated
// die-stacked DRAM channel that services set fetches.
type TLB struct {
	cfg     Config
	Small   *Partition
	Large   *Partition
	channel *dram.Channel
}

// New builds a POM-TLB; it panics on invalid configuration.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	small := newPartition(addr.Page4K, cfg.BaseAddr, cfg.smallBytes(), cfg.Ways)
	large := newPartition(addr.Page2M, cfg.BaseAddr+small.SizeBytes(), cfg.SizeBytes-small.SizeBytes(), cfg.Ways)
	return &TLB{
		cfg:     cfg,
		Small:   small,
		Large:   large,
		channel: dram.MustNew(cfg.DRAM),
	}
}

// Partition returns the partition for a page size.
func (t *TLB) Partition(size addr.PageSize) *Partition {
	if size == addr.Page2M {
		return t.Large
	}
	return t.Small
}

// Contains reports whether a physical address falls inside the POM-TLB's
// mapped range — such accesses are TLB-entry traffic, not data.
func (t *TLB) Contains(a addr.HPA) bool {
	x := uint64(a)
	return x >= t.cfg.BaseAddr && x < t.cfg.BaseAddr+t.Small.SizeBytes()+t.Large.SizeBytes()
}

// AccessDRAM fetches (or writes back) one set from the die-stacked channel
// at CPU time now, returning the aggregate latency and whether every burst
// hit the row buffer. A 4-way set is a single 64 B burst.
func (t *TLB) AccessDRAM(now uint64, setAddr addr.HPA, lines int, write bool) dram.Result {
	res := t.channel.Access(now, setAddr, write)
	for i := 1; i < lines; i++ {
		r := t.channel.Access(now+res.Latency, setAddr+addr.HPA(i*addr.CacheLineSize), write)
		res.Latency += r.Latency
		res.RowBufferHit = res.RowBufferHit && r.RowBufferHit
	}
	return res
}

// DRAMStats exposes the channel counters (Figure 11's row-buffer hits).
func (t *TLB) DRAMStats() dram.Stats { return t.channel.Stats() }

// DRAMChannel exposes the dedicated die-stacked channel so the
// self-check harness can attach a dram.Shadow to it.
func (t *TLB) DRAMChannel() *dram.Channel { return t.channel }

// CheckInvariants validates both partitions and the backing channel.
func (t *TLB) CheckInvariants() error {
	if err := t.Small.CheckInvariants(); err != nil {
		return err
	}
	if err := t.Large.CheckInvariants(); err != nil {
		return err
	}
	return t.channel.CheckInvariants()
}

// ResetStats clears the channel counters; contents and bank state are
// untouched.
func (t *TLB) ResetStats() {
	t.channel.ResetStats()
}

// InvalidatePage shoots a page out of the partition matching its size.
func (t *TLB) InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	return t.Partition(size).InvalidatePage(vm, pid, vpn)
}

// InvalidateProcess removes all of a process's entries from both
// partitions.
func (t *TLB) InvalidateProcess(vm addr.VMID, pid addr.PID) int {
	return t.Small.InvalidateProcess(vm, pid) + t.Large.InvalidateProcess(vm, pid)
}
