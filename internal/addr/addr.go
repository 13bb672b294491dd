// Package addr provides address arithmetic shared by every layer of the
// POM-TLB simulator: virtual/physical address types, the two page sizes the
// system supports (4 KB and 2 MB), page-number extraction, and the small
// identifier types (virtual-machine and process IDs) carried by TLB entries.
//
// The simulator distinguishes three address spaces, mirroring the paper's
// terminology:
//
//	gVA — guest virtual address (what the application issues)
//	gPA — guest physical address (what the guest OS thinks is physical)
//	hPA — host physical address (what the hypervisor actually maps)
//
// All three are 64-bit values; the distinction is carried in the type system
// so a guest-physical address cannot silently be used where a host-physical
// one is required.
package addr

import "fmt"

// VA is a guest virtual address.
type VA uint64

// GPA is a guest physical address: the output of the guest page table and
// the input of the host page table.
type GPA uint64

// HPA is a host physical address: the final output of a 2D translation and
// the address space the data caches and DRAM are indexed with.
type HPA uint64

// VMID identifies a virtual machine, mirroring Intel's VPID. VMID 0 is
// reserved for the host/native execution context.
type VMID uint16

// PID identifies a process within a virtual machine.
type PID uint16

// PageSize enumerates the two translation granularities the system supports.
type PageSize uint8

const (
	// Page4K is a small 4 KB page (12 offset bits).
	Page4K PageSize = iota
	// Page2M is a large 2 MB page (21 offset bits).
	Page2M
	// Page1G is a huge 1 GB page (30 offset bits). Table 1's system has
	// 1 GB L1 TLB entries, but — as the paper notes — the workloads never
	// use them, and the POM-TLB's partitions cover only 4 KB and 2 MB.
	Page1G
)

// Shift constants for the two page sizes.
const (
	Shift4K = 12
	Shift2M = 21
	Shift1G = 30

	// Bytes4K, Bytes2M and Bytes1G are the page sizes in bytes.
	Bytes4K = 1 << Shift4K
	Bytes2M = 1 << Shift2M
	Bytes1G = 1 << Shift1G

	// CacheLineSize is the transfer granularity between caches and DRAM,
	// and — deliberately — the size of one POM-TLB set (4 × 16 B entries).
	CacheLineSize = 64

	// CacheLineShift is log2(CacheLineSize).
	CacheLineShift = 6
)

// Shift returns the number of page-offset bits for the size.
func (s PageSize) Shift() uint {
	switch s {
	case Page2M:
		return Shift2M
	case Page1G:
		return Shift1G
	}
	return Shift4K
}

// Bytes returns the page size in bytes.
func (s PageSize) Bytes() uint64 { return 1 << s.Shift() }

// String implements fmt.Stringer.
func (s PageSize) String() string {
	switch s {
	case Page2M:
		return "2MB"
	case Page1G:
		return "1GB"
	}
	return "4KB"
}

// Other returns the opposite POM-TLB page size, used when a page-size
// prediction misses and the alternate partition must be probed. 1 GB pages
// have no partition (the paper's design covers 4 KB and 2 MB only), so
// they are not part of this toggle.
func (s PageSize) Other() PageSize {
	if s == Page2M {
		return Page4K
	}
	return Page2M
}

// VPN returns the virtual page number of v at the given page size.
func (v VA) VPN(s PageSize) uint64 { return uint64(v) >> s.Shift() }

// PageBase returns the address of the first byte of the page containing v.
func (v VA) PageBase(s PageSize) VA { return v &^ VA(s.Bytes()-1) }

// Offset returns the byte offset of v within its page.
func (v VA) Offset(s PageSize) uint64 { return uint64(v) & (s.Bytes() - 1) }

// Line returns the cache-line index of the address (address >> 6).
func (v VA) Line() uint64 { return uint64(v) >> CacheLineShift }

// PFN returns the host physical frame number at the given page size.
func (p HPA) PFN(s PageSize) uint64 { return uint64(p) >> s.Shift() }

// Line returns the cache-line index of the host physical address.
func (p HPA) Line() uint64 { return uint64(p) >> CacheLineShift }

// LineBase returns the address of the first byte of the 64 B line
// containing p.
func (p HPA) LineBase() HPA { return p &^ (CacheLineSize - 1) }

// FromPFN reconstructs a host physical address from a frame number, page
// size and in-page offset.
func FromPFN(pfn uint64, s PageSize, offset uint64) HPA {
	return HPA(pfn<<s.Shift() | offset&(s.Bytes()-1))
}

// Translate combines a host frame number with the page offset of a virtual
// address to produce the final host physical address.
func Translate(v VA, hpfn uint64, s PageSize) HPA {
	return HPA(hpfn<<s.Shift() | v.Offset(s))
}

// String implementations give hex forms that make simulator logs readable.

func (v VA) String() string  { return fmt.Sprintf("gVA:%#x", uint64(v)) }
func (p GPA) String() string { return fmt.Sprintf("gPA:%#x", uint64(p)) }
func (p HPA) String() string { return fmt.Sprintf("hPA:%#x", uint64(p)) }

// Radix-4 page-table index extraction. x86-64 uses 9 bits per level over a
// 48-bit canonical address: PML4 (bits 47:39), PDPT (38:30), PD (29:21),
// PT (20:12).

// Level identifies one of the four radix levels, ordered from the root.
type Level uint8

const (
	// PML4 is the root level of a radix-4 x86 table.
	PML4 Level = iota
	// PDPT is the page-directory-pointer level.
	PDPT
	// PD is the page-directory level; a 2 MB mapping terminates here.
	PD
	// PT is the leaf page-table level for 4 KB mappings.
	PT
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case PML4:
		return "PML4"
	case PDPT:
		return "PDPT"
	case PD:
		return "PD"
	case PT:
		return "PT"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// indexShift returns the bit position of the 9-bit index for level l.
func (l Level) indexShift() uint { return 12 + 9*(3-uint(l)) }

// Index extracts the 9-bit radix index of v for level l.
func Index(v VA, l Level) uint64 {
	return (uint64(v) >> l.indexShift()) & 0x1FF
}
