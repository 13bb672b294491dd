// Package virt provides the virtualization substrate under the simulator:
// a hypervisor that owns host physical memory, per-VM guest physical
// address spaces, guest page tables (gVA→gPA) per process, and per-VM
// extended page tables (gPA→hPA). It reproduces the two-dimensional
// structure QEMU/KVM gave the paper's evaluation — every guest page-table
// node itself lives at a guest physical address that the EPT must map,
// which is why a cold virtualized walk costs up to 24 references.
//
// A THP-like policy decides which mappings get 2 MB pages: callers declare
// a region's preferred page size when touching it, the way Linux THP
// promotes aligned 2 MB extents, and the hypervisor backs 2 MB guest pages
// with 2 MB EPT mappings.
package virt

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/pagetable"
)

// FrameAlloc hands out physical frames in one address space. Page-table
// nodes and 4 KB pages come from a low region; 2 MB pages from a high,
// 2 MB-aligned region, so the two never collide.
type FrameAlloc struct {
	nextSmall uint64
	nextLarge uint64
	nextHuge  uint64
	limit     uint64
	allocated uint64 // bytes handed out
}

// NewFrameAlloc creates an allocator. base is where small allocations
// start, largeBase (2 MB aligned, above base) where large pages start, and
// limit caps the large region.
func NewFrameAlloc(base, largeBase, limit uint64) *FrameAlloc {
	if largeBase%addr.Bytes2M != 0 {
		panic("virt: largeBase must be 2MB aligned")
	}
	if base >= largeBase || largeBase >= limit {
		panic("virt: need base < largeBase < limit")
	}
	// Huge (1 GB) frames come from the top of the large region, growing
	// down, so the two never collide within the limit.
	return &FrameAlloc{
		nextSmall: base,
		nextLarge: largeBase,
		nextHuge:  (limit - addr.Bytes1G) &^ (addr.Bytes1G - 1),
		limit:     limit,
	}
}

// AllocNode allocates a 4 KB page-table node frame.
func (f *FrameAlloc) AllocNode() uint64 { return f.alloc4K() }

// Alloc allocates a frame of the given size and returns its base address.
func (f *FrameAlloc) Alloc(s addr.PageSize) uint64 {
	if s == addr.Page1G {
		a := f.nextHuge
		if a <= f.nextLarge {
			panic("virt: huge-frame region exhausted")
		}
		f.nextHuge -= addr.Bytes1G
		f.allocated += addr.Bytes1G
		return a
	}
	if s == addr.Page2M {
		a := f.nextLarge
		f.nextLarge += addr.Bytes2M
		if f.nextLarge > f.limit {
			panic(fmt.Sprintf("virt: large-frame region exhausted at %#x", a))
		}
		f.allocated += addr.Bytes2M
		return a
	}
	return f.alloc4K()
}

func (f *FrameAlloc) alloc4K() uint64 {
	a := f.nextSmall
	f.nextSmall += addr.Bytes4K
	f.allocated += addr.Bytes4K
	return a
}

// Config sizes the hypervisor's host physical layout.
type Config struct {
	// HostBase is the first host physical address available for
	// allocation; the region below it is reserved (in the paper's system,
	// for the memory-mapped POM-TLB).
	HostBase uint64
	// GuestBase is where each VM's guest physical space starts.
	GuestBase uint64
}

// DefaultConfig reserves the low 256 MB of host physical memory (ample for
// the POM-TLB partitions) and starts guest physical spaces at 16 MB.
func DefaultConfig() Config {
	return Config{HostBase: 256 << 20, GuestBase: 16 << 20}
}

// Hypervisor owns host physical memory and the set of VMs.
type Hypervisor struct {
	cfg    Config
	halloc *FrameAlloc
	vms    map[addr.VMID]*VM
	native map[addr.PID]*pagetable.Table
}

// NewHypervisor creates a hypervisor with the given layout.
func NewHypervisor(cfg Config) *Hypervisor {
	const smallSpan = 1 << 44 // generous per-region spans within 48 bits
	return &Hypervisor{
		cfg:    cfg,
		halloc: NewFrameAlloc(cfg.HostBase, alignUp(cfg.HostBase+smallSpan, addr.Bytes2M), 1<<47),
		vms:    make(map[addr.VMID]*VM),
		native: make(map[addr.PID]*pagetable.Table),
	}
}

func alignUp(x, a uint64) uint64 { return (x + a - 1) &^ (a - 1) }

// NewVM registers a virtual machine. VMID 0 is reserved for native
// execution.
func (h *Hypervisor) NewVM(id addr.VMID) (*VM, error) {
	if id == 0 {
		return nil, fmt.Errorf("virt: VMID 0 is reserved for the host")
	}
	if _, dup := h.vms[id]; dup {
		return nil, fmt.Errorf("virt: VM %d already exists", id)
	}
	const guestSmallSpan = 1 << 42
	galloc := NewFrameAlloc(h.cfg.GuestBase, alignUp(h.cfg.GuestBase+guestSmallSpan, addr.Bytes2M), 1<<46)
	vm := &VM{
		id:     id,
		hyp:    h,
		galloc: galloc,
		ept:    pagetable.New(h.halloc.AllocNode),
		procs:  make(map[addr.PID]*pagetable.Table),
	}
	h.vms[id] = vm
	return vm, nil
}

// VM returns a registered VM.
func (h *Hypervisor) VM(id addr.VMID) (*VM, bool) {
	vm, ok := h.vms[id]
	return vm, ok
}

// NativeProcess returns (creating if needed) the bare-metal page table for
// a host process: a single-dimension table whose nodes live directly in
// host physical memory. Used for the paper's native-execution comparisons.
func (h *Hypervisor) NativeProcess(pid addr.PID) *pagetable.Table {
	t, ok := h.native[pid]
	if !ok {
		t = pagetable.New(h.halloc.AllocNode)
		h.native[pid] = t
	}
	return t
}

// TouchNative ensures a native mapping exists, allocating a host frame on
// first touch. Returns the leaf entry and whether it was newly created.
func (h *Hypervisor) TouchNative(pid addr.PID, va addr.VA, size addr.PageSize) (pagetable.Entry, bool, error) {
	t := h.NativeProcess(pid)
	aligned := uint64(va.PageBase(size))
	if e, ok := t.Lookup(aligned); ok {
		return e, false, nil
	}
	frame := h.halloc.Alloc(size)
	if _, err := t.Map(aligned, frame>>size.Shift(), size); err != nil {
		return pagetable.Entry{}, false, err
	}
	e, _ := t.Lookup(aligned)
	return e, true, nil
}

// VM is one virtual machine: a guest physical address space, per-process
// guest page tables, and an EPT mapping guest-physical to host-physical.
type VM struct {
	id     addr.VMID
	hyp    *Hypervisor
	galloc *FrameAlloc
	ept    *pagetable.Table
	procs  map[addr.PID]*pagetable.Table
}

// ID returns the VM identifier.
func (vm *VM) ID() addr.VMID { return vm.id }

// EPT returns the VM's extended page table (nodes in host physical space).
func (vm *VM) EPT() *pagetable.Table { return vm.ept }

// GuestTable returns (creating if needed) the guest page table of a
// process. Its nodes live in guest physical space; every node frame is
// EPT-mapped when created (see Touch), since the hardware walker must be
// able to host-translate it.
func (vm *VM) GuestTable(pid addr.PID) *pagetable.Table {
	t, ok := vm.procs[pid]
	if !ok {
		t = pagetable.New(vm.galloc.AllocNode)
		vm.procs[pid] = t
	}
	return t
}

// eptMapNodes EPT-maps freshly created guest page-table node frames at
// 4 KB granularity.
func (vm *VM) eptMapNodes(nodes []uint64) error {
	for _, gpa := range nodes {
		if _, ok := vm.ept.Lookup(gpa); ok {
			continue
		}
		hframe := vm.hyp.halloc.Alloc(addr.Page4K)
		if _, err := vm.ept.Map(gpa, hframe>>addr.Shift4K, addr.Page4K); err != nil {
			return fmt.Errorf("virt: EPT-mapping guest node %#x: %w", gpa, err)
		}
	}
	return nil
}

// Touch ensures va is fully mapped for (pid): guest table maps the page to
// a fresh guest frame, the EPT maps that frame (and any new guest table
// nodes) to host frames. size selects 4 KB or THP-style 2 MB backing.
// Touching an already-mapped page is a cheap no-op. The returned flag is
// true when a new mapping was created.
func (vm *VM) Touch(pid addr.PID, va addr.VA, size addr.PageSize) (bool, error) {
	gt := vm.GuestTable(pid)
	aligned := uint64(va.PageBase(size))
	if e, ok := gt.Lookup(aligned); ok && e.Size == size {
		return false, nil
	}
	gframe := vm.galloc.Alloc(size)
	nodes, err := gt.Map(aligned, gframe>>size.Shift(), size)
	if err != nil {
		return false, fmt.Errorf("virt: guest map %s: %w", va, err)
	}
	if err := vm.eptMapNodes(nodes); err != nil {
		return false, err
	}
	// Back the data frame with a same-size host frame (THP on the host).
	hframe := vm.hyp.halloc.Alloc(size)
	if _, err := vm.ept.Map(gframe, hframe>>size.Shift(), size); err != nil {
		return false, fmt.Errorf("virt: EPT map gPA %#x: %w", gframe, err)
	}
	return true, nil
}

// Translate resolves a guest virtual address logically (no timing): the
// ground truth the timed translation paths must agree with.
func (vm *VM) Translate(pid addr.PID, va addr.VA) (addr.HPA, addr.PageSize, bool) {
	gt := vm.GuestTable(pid)
	ge, ok := gt.Lookup(uint64(va))
	if !ok {
		return 0, 0, false
	}
	gpa := addr.FromPFN(ge.PFN, ge.Size, va.Offset(ge.Size))
	he, ok := vm.ept.Lookup(uint64(gpa))
	if !ok {
		return 0, 0, false
	}
	hpa := addr.FromPFN(he.PFN, he.Size, uint64(gpa)&(he.Size.Bytes()-1))
	return hpa, ge.Size, true
}

// Unmap removes a guest mapping (the EPT backing stays; real hypervisors
// reclaim lazily) and returns whether anything was removed. The caller is
// responsible for the TLB shootdown.
func (vm *VM) Unmap(pid addr.PID, va addr.VA, size addr.PageSize) bool {
	gt := vm.GuestTable(pid)
	_, ok := gt.Unmap(uint64(va.PageBase(size)))
	return ok
}
