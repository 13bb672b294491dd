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
	"encoding/binary"
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

// matches reports whether the entry translates (vm, pid, vpn).
func (e Entry) matches(vm addr.VMID, pid addr.PID, vpn uint64) bool {
	return e.Valid && e.VM == vm && e.PID == pid && e.VPN == vpn
}

// DecodeEntry unpacks an entry's 16-byte memory image:
//
//	[0]     flags: bit0 = valid, bit1 = size (1 = 2 MB), bits 2-3 = LRU
//	[1]     attribute/protection bits
//	[2:4]   VM ID (little endian)
//	[4:6]   process ID
//	[6:11]  VPN (40 bits)
//	[11:16] PPN (40 bits)
func DecodeEntry(b [EntryBytes]byte) Entry {
	flags := b[0]
	size := addr.Page4K
	if flags&2 != 0 {
		size = addr.Page2M
	}
	return Entry{
		Valid: flags&1 != 0,
		Size:  size,
		LRU:   (flags >> 2) & 3,
		Attr:  b[1],
		VM:    addr.VMID(binary.LittleEndian.Uint16(b[2:4])),
		PID:   addr.PID(binary.LittleEndian.Uint16(b[4:6])),
		VPN:   get40(b[6:11]),
		PFN:   get40(b[11:16]),
	}
}

// get40 loads 5 little-endian bytes.
func get40(src []byte) uint64 {
	_ = src[4]
	return uint64(src[0]) | uint64(src[1])<<8 | uint64(src[2])<<16 |
		uint64(src[3])<<24 | uint64(src[4])<<32
}

// String implements fmt.Stringer.
func (e Entry) String() string {
	if !e.Valid {
		return "entry{invalid}"
	}
	return fmt.Sprintf("entry{vm=%d pid=%d vpn=%#x→pfn=%#x %s lru=%d}",
		e.VM, e.PID, e.VPN, e.PFN, e.Size, e.LRU)
}
