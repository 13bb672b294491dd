package pagetable_test

import (
	"fmt"
	"log"

	"repro/internal/addr"
	"repro/internal/pagetable"
	"repro/internal/virt"
)

// Example_nestedWalk reproduces Figure 1: it maps one guest page under a
// hypervisor and prints every memory reference of the cold
// two-dimensional page walk — up to 24 of them — then shows how the
// page-structure caches and nested TLB collapse the warm walk to a single
// reference.
func Example_nestedWalk() {
	hyp := virt.NewHypervisor(virt.DefaultConfig())
	vm, err := hyp.NewVM(1)
	if err != nil {
		log.Fatal(err)
	}

	va := addr.VA(0x7f12_3456_7000)
	if _, err := vm.Touch(vm.GuestTable(1), va, addr.Page4K); err != nil {
		log.Fatal(err)
	}

	// A walker whose memory callback prints each PTE reference in the
	// Figure 1 order: four host levels per guest level, then the guest
	// PTE read, and a final host walk for the data address.
	ref := 0
	printRef := func(a addr.HPA, write bool) uint64 {
		ref++
		fmt.Printf("  ref %2d: read PTE at %v\n", ref, a)
		return 100 // flat 100-cycle memory for illustration
	}
	walker := pagetable.NewWalker(pagetable.DefaultWalkerConfig(), printRef)

	fmt.Printf("cold 2D walk of %v (guest VM 1):\n", va)
	res := walker.Translate2D(vm.GuestTable(1), vm.EPT(), 1, 1, va)
	if !res.OK {
		log.Fatal("walk faulted")
	}
	fmt.Printf("→ %d references, %d cycles, hPFN %#x (%s page)\n\n",
		res.Refs, res.Latency, res.HPFN, res.Size)

	fmt.Println("warm walk of the same address (PSC + nested TLB hits):")
	ref = 0
	res = walker.Translate2D(vm.GuestTable(1), vm.EPT(), 1, 1, va)
	fmt.Printf("→ %d reference(s), %d cycles\n\n", res.Refs, res.Latency)

	fmt.Println("for comparison, a cold native (non-virtualized) walk:")
	if _, _, err := hyp.TouchNative(hyp.NativeProcess(1), va, addr.Page4K); err != nil {
		log.Fatal(err)
	}
	ref = 0
	nat := pagetable.NewWalker(pagetable.DefaultWalkerConfig(), printRef)
	nres := nat.TranslateNative(hyp.NativeProcess(1), 0, 1, va)
	fmt.Printf("→ %d references, %d cycles\n", nres.Refs, nres.Latency)

	fmt.Println("\nvirtualization turns a 4-reference walk into a 24-reference one,")
	fmt.Println("which is why the paper adds a DRAM L3 TLB that resolves misses in")
	fmt.Println("ONE access.")
	// Output:
	// cold 2D walk of gVA:0x7f1234567000 (guest VM 1):
	//   ref  1: read PTE at hPA:0x10001000
	//   ref  2: read PTE at hPA:0x10002000
	//   ref  3: read PTE at hPA:0x10003040
	//   ref  4: read PTE at hPA:0x10004008
	//   ref  5: read PTE at hPA:0x100007f0
	//   ref  6: read PTE at hPA:0x10001000
	//   ref  7: read PTE at hPA:0x10002000
	//   ref  8: read PTE at hPA:0x10003040
	//   ref  9: read PTE at hPA:0x10004010
	//   ref 10: read PTE at hPA:0x10005240
	//   ref 11: read PTE at hPA:0x10001000
	//   ref 12: read PTE at hPA:0x10002000
	//   ref 13: read PTE at hPA:0x10003040
	//   ref 14: read PTE at hPA:0x10004018
	//   ref 15: read PTE at hPA:0x10006d10
	//   ref 16: read PTE at hPA:0x10001000
	//   ref 17: read PTE at hPA:0x10002000
	//   ref 18: read PTE at hPA:0x10003040
	//   ref 19: read PTE at hPA:0x10004020
	//   ref 20: read PTE at hPA:0x10007b38
	//   ref 21: read PTE at hPA:0x10001000
	//   ref 22: read PTE at hPA:0x10002000
	//   ref 23: read PTE at hPA:0x10003040
	//   ref 24: read PTE at hPA:0x10004000
	// → 24 references, 2407 cycles, hPFN 0x10008 (4KB page)
	//
	// warm walk of the same address (PSC + nested TLB hits):
	//   ref  1: read PTE at hPA:0x10007b38
	// → 1 reference(s), 104 cycles
	//
	// for comparison, a cold native (non-virtualized) walk:
	//   ref  1: read PTE at hPA:0x1000a7f0
	//   ref  2: read PTE at hPA:0x1000b240
	//   ref  3: read PTE at hPA:0x1000cd10
	//   ref  4: read PTE at hPA:0x1000db38
	// → 4 references, 402 cycles
	//
	// virtualization turns a 4-reference walk into a 24-reference one,
	// which is why the paper adds a DRAM L3 TLB that resolves misses in
	// ONE access.
}
