// Package pomtlb implements the paper's contribution: a very large,
// DRAM-resident, memory-addressable L3 TLB (the "Part-Of-Memory TLB").
//
// The POM-TLB is physically partitioned into a 4 KB-page TLB and a 2 MB-page
// TLB (Section 2.1.2). Each partition is a 4-way set-associative structure
// whose sets are exactly one 64 B DRAM burst: four 16-byte entries holding a
// complete gVA→hPA translation each (Figure 5). Because the structure is
// mapped into the physical address space, its sets are cached in the L2/L3
// data caches; the package also provides the 512-entry page-size predictor
// and 1-bit cache-bypass predictor of Sections 2.1.4–2.1.5.
package pomtlb

import (
	"fmt"

	"repro/internal/addr"
)

// EntryBytes is the size of one POM-TLB entry (Figure 5).
const EntryBytes = 16

// Entry is one POM-TLB translation entry. It mirrors Figure 5's metadata
// format: valid bit, VM ID, process ID, VPN, PPN and attribute bits (which
// include the 2 LRU bits used for replacement).
type Entry struct {
	Valid bool
	VM    addr.VMID
	PID   addr.PID
	VPN   uint64 // virtual page number at the partition's page size
	PFN   uint64 // host physical frame number
	Size  addr.PageSize
	// LRU is the 2-bit age used for replacement (3 = most recent).
	LRU uint8
	// Attr carries the remaining attribute/protection bits.
	Attr uint8
}

// The 16-byte image of an entry (Figure 5), the form a partition stores:
//
//	byte  0     flags: bit0 = valid, bit1 = size (1 = 2 MB), bits 2-3 = LRU
//	byte  1     attribute/protection bits
//	bytes 2-3   VM ID
//	bytes 4-5   process ID
//	bytes 6-10  VPN (40 bits)
//	bytes 11-15 PPN (40 bits)
//
// held as two little-endian words, bytes 0-7 and 8-15, so the VPN's low
// 16 bits end word 0 and its high 24 bits start word 1.
const (
	validBit  = 1
	largeBit  = 1 << 1
	lruShift  = 2
	lruMask   = 3 << lruShift
	attrShift = 8
	attrMask  = 0xFF << attrShift
	vmShift   = 16
	pidShift  = 32
	vpnShift  = 48
	pfnShift  = 24 // in word 1, above the VPN's high bits

	// vpnLowBits is how many VPN bits word 0 holds.
	vpnLowBits = 64 - vpnShift

	// fieldBits is the width of the VPN and PPN fields.
	fieldBits = 40
	// ownerMask selects word 0's valid bit, VM ID and process ID.
	ownerMask = validBit | (1<<vpnShift - 1<<vmShift)
	// keyMask0 and keyMask1 select the bits that identify a translation:
	// the owner and the VPN.
	keyMask0 = ownerMask | (1<<64 - 1<<vpnShift)
	keyMask1 = 1<<(fieldBits-vpnLowBits) - 1
)

// Encode packs the entry into its 16-byte image, keeping the low 40 bits
// of VPN and PFN and the low 2 bits of LRU.
func (e Entry) Encode() [2]uint64 {
	w0 := uint64(e.LRU&3)<<lruShift | uint64(e.Attr)<<attrShift | owner(e.VM, e.PID) | e.VPN<<vpnShift
	if !e.Valid {
		w0 &^= validBit
	}
	if e.Size == addr.Page2M {
		w0 |= largeBit
	}
	return [2]uint64{w0, e.VPN>>vpnLowBits&keyMask1 | e.PFN<<pfnShift}
}

// DecodeEntry unpacks an entry's 16-byte image.
func DecodeEntry(w [2]uint64) Entry {
	size := addr.Page4K
	if w[0]&largeBit != 0 {
		size = addr.Page2M
	}
	return Entry{
		Valid: w[0]&validBit != 0,
		Size:  size,
		LRU:   uint8(w[0]&lruMask) >> lruShift,
		Attr:  uint8(w[0] >> attrShift),
		VM:    addr.VMID(w[0] >> vmShift),
		PID:   addr.PID(w[0] >> pidShift),
		VPN:   w[0]>>vpnShift | (w[1]&keyMask1)<<vpnLowBits,
		PFN:   w[1] >> pfnShift,
	}
}

// owner returns word 0's valid bit, VM ID and process ID for (vm, pid).
func owner(vm addr.VMID, pid addr.PID) uint64 {
	return validBit | uint64(vm)<<vmShift | uint64(pid)<<pidShift
}

// key returns the identifying bits of (vm, pid, vpn)'s valid entry in
// each image word, as keyMask0 and keyMask1 select them. A VPN wider
// than 40 bits gets a key no image matches.
func key(vm addr.VMID, pid addr.PID, vpn uint64) (uint64, uint64) {
	return owner(vm, pid) | vpn<<vpnShift, vpn >> vpnLowBits
}

// matches reports whether image w holds the translation keyed k0, k1.
func matches(w [2]uint64, k0, k1 uint64) bool {
	return w[0]&keyMask0 == k0 && w[1]&keyMask1 == k1
}

// String implements fmt.Stringer.
func (e Entry) String() string {
	if !e.Valid {
		return "entry{invalid}"
	}
	return fmt.Sprintf("entry{vm=%d pid=%d vpn=%#x→pfn=%#x %s lru=%d}",
		e.VM, e.PID, e.VPN, e.PFN, e.Size, e.LRU)
}
