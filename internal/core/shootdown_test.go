package core

import (
	"context"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
)

// shootSystem runs a short POM-TLB simulation and returns the system plus
// a virtual address known to be mapped and resident everywhere.
func shootSystem(t *testing.T, mode Mode) (*System, addr.VA) {
	t.Helper()
	cfg := smallConfig(mode)
	cfg.WarmupRefs = 0
	cfg.MaxRefs = 60_000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := gupsParams(cfg.Cores)
	p.FootprintBytes = 16 << 20 // small: every page gets hot
	if _, err := sys.Run(context.Background(), trace.NewUniform(p), "shoot"); err != nil {
		t.Fatal(err)
	}
	// Pick a mapped 4K page.
	l := uint64(0x10_0000_0000) // generator base (large region empty is fine)
	_ = l
	for vpn := uint64(0); ; vpn++ {
		va := addr.VA(0x10_0000_0000 + vpn<<addr.Shift4K)
		if _, _, ok := sys.vms[0].Translate(sys.vms[0].GuestTable(1), va); ok {
			return sys, va
		}
		if vpn > 1<<20 {
			t.Fatal("no mapped page found")
		}
	}
}

func TestShootdownPOM(t *testing.T) {
	sys, va := shootSystem(t, POMTLB)
	vmid := sys.vms[0].ID()

	// Make the translation resident in the TLBs.
	c := sys.cores[0]
	c.now = c.clock
	sys.translate(c, va)
	if _, ok := c.l1tlb.Lookup(vmid, 1, va); !ok {
		t.Fatal("translation not in L1 TLB before shootdown")
	}

	if !sys.Shootdown(vmid, 1, va, addr.Page4K) {
		t.Fatal("Shootdown reported page unmapped")
	}
	if _, ok := c.l1tlb.Lookup(vmid, 1, va); ok {
		t.Error("L1 TLB entry survived shootdown")
	}
	if _, ok := c.l2tlb.Lookup(vmid, 1, va); ok {
		t.Error("L2 TLB entry survived shootdown")
	}
	if _, ok := sys.pom.Small.Search(vmid, 1, va); ok {
		t.Error("POM-TLB entry survived shootdown")
	}
	if _, _, ok := sys.vms[0].Translate(sys.vms[0].GuestTable(1), va); ok {
		t.Error("guest mapping survived shootdown")
	}
	line := sys.pom.Small.SetAddr(va, vmid).Line()
	if sys.l3.Lookup(line) || c.l2.Lookup(line) || c.l1d.Lookup(line) {
		t.Error("cached POM set line survived shootdown")
	}

	// A second shootdown finds nothing.
	if sys.Shootdown(vmid, 1, va, addr.Page4K) {
		t.Error("double shootdown should report unmapped")
	}
}

func TestShootdownTSB(t *testing.T) {
	sys, va := shootSystem(t, TSB)
	vmid := sys.vms[0].ID()
	if !sys.Shootdown(vmid, 1, va, addr.Page4K) {
		t.Fatal("Shootdown failed")
	}
	if _, ok := sys.tsbB.Lookup(vmid, 1, va, addr.Page4K); ok {
		t.Error("TSB entry survived shootdown")
	}
}

func TestShootdownShared(t *testing.T) {
	sys, va := shootSystem(t, SharedL2)
	vmid := sys.vms[0].ID()
	// Ensure resident in the shared TLB first.
	c := sys.cores[0]
	c.now = c.clock
	sys.translate(c, va)
	sys.Shootdown(vmid, 1, va, addr.Page4K)
	if _, ok := sys.shared.Lookup(vmid, 1, va); ok {
		t.Error("shared TLB entry survived shootdown")
	}
}

func TestShootdownThenRemapWorks(t *testing.T) {
	sys, va := shootSystem(t, POMTLB)
	vmid := sys.vms[0].ID()
	// Core 0's touch memo holds the page when the shootdown unmaps it.
	c := sys.cores[0]
	if err := sys.touch(c, va, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	sys.Shootdown(vmid, 1, va, addr.Page4K)

	// Remap and translate again: must succeed with a fresh frame.
	if err := sys.touch(c, va, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	c.now = c.clock
	hpa, _ := sys.translate(c, va)
	want, _, ok := sys.vms[0].Translate(sys.vms[0].GuestTable(1), va)
	if !ok || hpa != want {
		t.Errorf("post-remap translation %v != logical %v (ok=%v)", hpa, want, ok)
	}
}

// TestSetCoreTenantRemapsOnNextReference pins that a core moved to a
// tenant whose table lacks its last page maps the page on its next
// reference: the switch forgets the page the core's touch memo holds.
func TestSetCoreTenantRemapsOnNextReference(t *testing.T) {
	sys, err := NewSystem(smallConfig(POMTLB))
	if err != nil {
		t.Fatal(err)
	}
	c := sys.cores[0]
	va := addr.VA(0x10_0000_0000 + 0x5000)
	if err := sys.touch(c, va, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetCoreTenant(0, c.vmid, 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.vm.Translate(c.table, va); ok {
		t.Fatal("process 2's table maps the page before any reference")
	}
	if err := sys.touch(c, va, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.vm.Translate(c.table, va); !ok {
		t.Error("process 2's table lacks the page after the core referenced it")
	}
}

// TestProcessExitFlushesHugeL1 pins that ProcessExit reaches the L1's
// 1 GB structure: a translated 1 GB page must not survive the exit.
func TestProcessExitFlushesHugeL1(t *testing.T) {
	sys, err := NewSystem(smallConfig(POMTLB))
	if err != nil {
		t.Fatal(err)
	}
	c := sys.cores[0]
	va := addr.VA(0x40_0000_0000 + 0x1234)
	if err := sys.touch(c, va, addr.Page1G); err != nil {
		t.Fatal(err)
	}
	c.now = c.clock
	sys.translate(c, va)
	if e, ok := c.l1tlb.Lookup(c.vmid, c.pid, va); !ok || e.Size != addr.Page1G {
		t.Fatalf("1 GB translation not in the L1 TLB before the exit: %+v, %v", e, ok)
	}
	sys.ProcessExit(c.vmid, c.pid)
	if _, ok := c.l1tlb.Lookup(c.vmid, c.pid, va); ok {
		t.Error("1 GB L1 TLB entry survived ProcessExit")
	}
}
