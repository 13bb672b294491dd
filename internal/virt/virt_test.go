package virt

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/pagetable"
)

func newVM(t *testing.T) (*Hypervisor, *VM) {
	t.Helper()
	h := NewHypervisor(DefaultConfig())
	vm, err := h.NewVM(1)
	if err != nil {
		t.Fatal(err)
	}
	return h, vm
}

func TestFrameAllocBasics(t *testing.T) {
	f := NewFrameAlloc(0x1000, 0x20_0000, 0x1_0000_0000)
	a := f.Alloc(addr.Page4K)
	b := f.Alloc(addr.Page4K)
	if a != 0x1000 || b != 0x2000 {
		t.Errorf("small allocs = %#x, %#x", a, b)
	}
	l1, l2 := f.Alloc(addr.Page2M), f.Alloc(addr.Page2M)
	if l1 != 0x20_0000 || l2 != 0x40_0000 {
		t.Errorf("large allocs = %#x, %#x, want consecutive 2MB frames from 0x200000", l1, l2)
	}
	if h := f.Alloc(addr.Page1G); h != 0xC000_0000 {
		t.Errorf("huge alloc = %#x, want the top 1GB frame below the limit", h)
	}
	if n := f.AllocNode(); n != 0x3000 {
		t.Errorf("node alloc = %#x", n)
	}
}

func TestFrameAllocValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewFrameAlloc(0x1000, 0x1001, 1<<30) },       // unaligned
		func() { NewFrameAlloc(0x20_0000, 0x20_0000, 1<<30) }, // base >= largeBase
		func() { NewFrameAlloc(0x1000, 0x20_0000, 0x1000) },   // limit too low
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFrameAllocExhaustion(t *testing.T) {
	f := NewFrameAlloc(0x1000, 0x20_0000, 0x40_0000)
	f.Alloc(addr.Page2M) // fills the single large slot
	defer func() {
		if recover() == nil {
			t.Error("expected panic on exhaustion")
		}
	}()
	f.Alloc(addr.Page2M)
}

func TestNewVMValidation(t *testing.T) {
	h := NewHypervisor(DefaultConfig())
	if _, err := h.NewVM(0); err == nil {
		t.Error("VMID 0 should be rejected")
	}
	if _, err := h.NewVM(1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewVM(1); err == nil {
		t.Error("duplicate VMID should be rejected")
	}
	if len(h.vms) != 1 {
		t.Errorf("VMs = %d", len(h.vms))
	}
	if _, ok := h.VM(1); !ok {
		t.Error("VM(1) should exist")
	}
	if _, ok := h.VM(9); ok {
		t.Error("VM(9) should not exist")
	}
}

func TestTouchAndTranslate4K(t *testing.T) {
	_, vm := newVM(t)
	va := addr.VA(0x7f00_1234_5000)
	if _, err := vm.Touch(vm.GuestTable(1), va, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	hpa, size, ok := vm.Translate(vm.GuestTable(1), va+0x123)
	if !ok || size != addr.Page4K {
		t.Fatalf("Translate = %v, %v, %v", hpa, size, ok)
	}
	if uint64(hpa)&0xFFF != 0x123 {
		t.Errorf("offset not preserved: %#x", uint64(hpa))
	}
	if uint64(hpa) < DefaultConfig().HostBase {
		t.Errorf("hPA %#x below host base (reserved region)", uint64(hpa))
	}
}

func TestTouchAndTranslate2M(t *testing.T) {
	_, vm := newVM(t)
	va := addr.VA(0x4000_0000)
	if _, err := vm.Touch(vm.GuestTable(1), va, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	hpa, size, ok := vm.Translate(vm.GuestTable(1), va+0x12_3456)
	if !ok || size != addr.Page2M {
		t.Fatalf("Translate = %v, %v, %v", hpa, size, ok)
	}
	if uint64(hpa)&(addr.Bytes2M-1) != 0x12_3456 {
		t.Errorf("2M offset not preserved: %#x", uint64(hpa))
	}
}

func TestTouchIdempotent(t *testing.T) {
	_, vm := newVM(t)
	va := addr.VA(0x1000)
	vm.Touch(vm.GuestTable(1), va, addr.Page4K)
	h1, _, _ := vm.Translate(vm.GuestTable(1), va)
	vm.Touch(vm.GuestTable(1), va, addr.Page4K)
	h2, _, _ := vm.Translate(vm.GuestTable(1), va)
	if h1 != h2 {
		t.Errorf("re-touch changed mapping: %v vs %v", h1, h2)
	}
}

func TestTranslateUnmapped(t *testing.T) {
	_, vm := newVM(t)
	if _, _, ok := vm.Translate(vm.GuestTable(1), 0xdead_0000); ok {
		t.Error("unmapped VA should not translate")
	}
}

func TestGuestNodesAreEPTMapped(t *testing.T) {
	_, vm := newVM(t)
	va := addr.VA(0x7f00_0000_0000)
	if _, err := vm.Touch(vm.GuestTable(1), va, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	// Every guest page-table node must be EPT-mapped or the hardware 2D
	// walker could not read guest PTEs.
	gt := vm.GuestTable(1)
	refs, _, ok := gt.WalkAppend(uint64(va), nil)
	if !ok || len(refs) != 4 {
		t.Fatalf("guest walk refs = %d, ok = %v", len(refs), ok)
	}
	for _, r := range refs {
		if _, ok := vm.EPT().Lookup(r.Addr); !ok {
			t.Errorf("guest node GPA %#x not EPT-mapped", r.Addr)
		}
	}
}

func TestFull2DWalkThroughVirtTables(t *testing.T) {
	_, vm := newVM(t)
	va := addr.VA(0x7f00_0000_1000)
	if _, err := vm.Touch(vm.GuestTable(1), va, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	w := pagetable.NewWalker(pagetable.DefaultWalkerConfig(),
		func(a addr.HPA, write bool) uint64 { return 1 })
	res := w.Translate2D(vm.GuestTable(1), vm.EPT(), uint16AsVMID(1), 1, va)
	if !res.OK {
		t.Fatal("2D walk through virt tables failed")
	}
	want, size, _ := vm.Translate(vm.GuestTable(1), va)
	if res.HPFN != want.PFN(size) {
		t.Errorf("walker HPFN %#x != logical %#x", res.HPFN, want.PFN(size))
	}
	if res.Refs != 24 {
		t.Errorf("cold walk refs = %d, want 24", res.Refs)
	}
}

func uint16AsVMID(x uint16) addr.VMID { return addr.VMID(x) }

func TestProcessIsolation(t *testing.T) {
	_, vm := newVM(t)
	va := addr.VA(0x1000)
	vm.Touch(vm.GuestTable(1), va, addr.Page4K)
	vm.Touch(vm.GuestTable(2), va, addr.Page4K)
	h1, _, _ := vm.Translate(vm.GuestTable(1), va)
	h2, _, _ := vm.Translate(vm.GuestTable(2), va)
	if h1 == h2 {
		t.Error("different processes should get different frames")
	}
	if len(vm.procs) != 2 {
		t.Errorf("processes = %d", len(vm.procs))
	}
}

func TestVMIsolation(t *testing.T) {
	h := NewHypervisor(DefaultConfig())
	vm1, _ := h.NewVM(1)
	vm2, _ := h.NewVM(2)
	va := addr.VA(0x1000)
	vm1.Touch(vm1.GuestTable(1), va, addr.Page4K)
	vm2.Touch(vm2.GuestTable(1), va, addr.Page4K)
	h1, _, _ := vm1.Translate(vm1.GuestTable(1), va)
	h2, _, _ := vm2.Translate(vm2.GuestTable(1), va)
	if h1 == h2 {
		t.Error("different VMs should get different host frames")
	}
}

func TestNativeProcess(t *testing.T) {
	h := NewHypervisor(DefaultConfig())
	e, created, err := h.TouchNative(h.NativeProcess(1), 0x1234_5000, addr.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if !created || e.Size != addr.Page4K {
		t.Fatalf("native touch = %+v, created=%v; want a new 4 KB entry", e, created)
	}
	// Idempotent.
	e2, created2, err := h.TouchNative(h.NativeProcess(1), 0x1234_5000, addr.Page4K)
	if err != nil || e2.PFN != e.PFN || created2 {
		t.Errorf("second TouchNative = %+v, created=%v, %v", e2, created2, err)
	}
	// Walkable with 4 refs.
	tab := h.NativeProcess(1)
	refs, _, ok := tab.WalkAppend(0x1234_5000, nil)
	if !ok || len(refs) != 4 {
		t.Errorf("native walk refs = %d, ok = %v", len(refs), ok)
	}
}

func TestUnmap(t *testing.T) {
	_, vm := newVM(t)
	va := addr.VA(0x1000)
	vm.Touch(vm.GuestTable(1), va, addr.Page4K)
	if !vm.Unmap(1, va, addr.Page4K) {
		t.Error("Unmap should succeed")
	}
	if _, _, ok := vm.Translate(vm.GuestTable(1), va); ok {
		t.Error("mapping survived Unmap")
	}
	if vm.Unmap(1, va, addr.Page4K) {
		t.Error("double Unmap should fail")
	}
}

// Property: any touched address translates, preserves its in-page offset,
// and lands in non-reserved host memory; the timed 2D walker agrees with
// the logical translation.
func TestTouchTranslateProperty(t *testing.T) {
	_, vm := newVM(t)
	w := pagetable.NewWalker(pagetable.DefaultWalkerConfig(),
		func(a addr.HPA, write bool) uint64 { return 1 })
	f := func(raw uint64, large bool) bool {
		size := addr.Page4K
		if large {
			size = addr.Page2M
		}
		va := addr.VA(raw & (1<<48 - 1))
		if _, err := vm.Touch(vm.GuestTable(1), va, size); err != nil {
			return true // geometry conflict from a prior iteration's size
		}
		hpa, gotSize, ok := vm.Translate(vm.GuestTable(1), va)
		if !ok || uint64(hpa)&(gotSize.Bytes()-1) != va.Offset(gotSize) {
			return false
		}
		res := w.Translate2D(vm.GuestTable(1), vm.EPT(), 1, 1, va)
		return res.OK && res.HPFN == hpa.PFN(gotSize) && res.Size == gotSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
