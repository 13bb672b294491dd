package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
)

// This file is the registry conformance suite: every scheme that
// registers itself via RegisterScheme is run through the same behavioral
// contract, with no per-scheme test code. A new scheme gets the full
// battery for free the moment it registers. The remaining contract
// clause — zero heap allocations per record in steady state — is pinned
// by TestSteadyStateZeroAllocs in alloc_test.go, which also iterates
// Modes().

// holdsNever lists the schemes whose Holds is contractually always false:
// they either have no large translation structure (baseline) or spend
// their capacity on data rather than translations (l4-cache, dram-cache).
var holdsNever = map[Mode]bool{Baseline: true, L4Cache: true, DRAMCache: true}

// conformanceSystem runs a short TLB-hostile stream so every structure is
// warm, and returns the system plus a virtual address known to be mapped
// as a 4K page.
func conformanceSystem(t *testing.T, mode Mode) (*System, addr.VA) {
	t.Helper()
	cfg := smallConfig(mode)
	cfg.WarmupRefs = 0
	cfg.MaxRefs = 40_000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := gupsParams(cfg.Cores)
	p.FootprintBytes = 16 << 20
	if _, err := sys.Run(context.Background(), trace.NewUniform(p), "conformance"); err != nil {
		t.Fatal(err)
	}
	for vpn := uint64(0); vpn <= 1<<20; vpn++ {
		va := addr.VA(0x10_0000_0000 + vpn<<addr.Shift4K)
		if hpa, size, ok := sys.vms[0].Translate(sys.vms[0].GuestTable(1), va); ok && size == addr.Page4K {
			_ = hpa
			return sys, va
		}
	}
	t.Fatal("no mapped 4K page found")
	return nil, 0
}

// TestConformanceSeedSymmetry: for every scheme, demand-mapping a fresh
// page under SteadyState either installs its translation into the large
// structure (Seeds() == true, observable via Holds) or provably does not
// (Seeds() == false); a subsequent shootdown always clears it.
func TestConformanceSeedSymmetry(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			sys, _ := conformanceSystem(t, mode)
			sch := sys.scheme
			vmid := sys.vms[0].ID()
			c := sys.cores[0]
			for _, size := range []addr.PageSize{addr.Page4K, addr.Page2M} {
				// Far outside the trace footprint, aligned for either size.
				va := addr.VA(0x80_0000_0000 + uint64(size.Bytes()))
				if err := sys.touch(c, va, size); err != nil {
					t.Fatal(err)
				}
				got := sch.Holds(sys, vmid, c.pid, va, size)
				if got != sch.Seeds() {
					t.Errorf("%v: Holds after seed = %v, Seeds() = %v", size, got, sch.Seeds())
				}
				sys.Shootdown(vmid, c.pid, va, size)
				if sch.Holds(sys, vmid, c.pid, va, size) {
					t.Errorf("%v: Holds true after shootdown", size)
				}
			}
		})
	}
}

// TestConformanceShootdownSymmetry: translating a mapped page makes it
// resident in the scheme's structure for every scheme that retains
// translations at all, and a shootdown removes it everywhere — large
// structure, both SRAM TLB levels, and the guest page table.
func TestConformanceShootdownSymmetry(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			sys, va := conformanceSystem(t, mode)
			sch := sys.scheme
			vmid := sys.vms[0].ID()
			c := sys.cores[0]
			c.now = c.clock
			sys.translate(c, va)
			resident := sch.Holds(sys, vmid, c.pid, va, addr.Page4K)
			if holdsNever[mode] {
				if resident {
					t.Fatalf("Holds true for a scheme with no translation structure")
				}
			} else if !resident {
				t.Fatalf("Holds false immediately after translating a mapped page")
			}
			if !sys.Shootdown(vmid, c.pid, va, addr.Page4K) {
				t.Fatal("Shootdown reported the page unmapped")
			}
			if sch.Holds(sys, vmid, c.pid, va, addr.Page4K) {
				t.Error("large structure holds the page after shootdown")
			}
			if _, ok := c.l1tlb.Lookup(vmid, c.pid, va); ok {
				t.Error("L1 TLB holds the page after shootdown")
			}
			if _, ok := c.l2tlb.Lookup(vmid, c.pid, va); ok {
				t.Error("L2 TLB holds the page after shootdown")
			}
			if _, _, ok := sys.vms[0].Translate(sys.vms[0].GuestTable(c.pid), va); ok {
				t.Error("guest mapping survived shootdown")
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Errorf("invariants violated after shootdown: %v", err)
			}
		})
	}
}

// TestConformanceProcessExit: after ProcessExit, no sampled page of the
// dead process remains in the scheme's structure, the removal count is
// consistent with what Holds observed beforehand, and a second exit
// removes nothing.
func TestConformanceProcessExit(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			sys, _ := conformanceSystem(t, mode)
			sch := sys.scheme
			vmid := sys.vms[0].ID()
			c := sys.cores[0]

			// Sample mapped 4K pages and count how many the structure holds.
			var sample []addr.VA
			held := 0
			for vpn := uint64(0); vpn <= 1<<14 && len(sample) < 64; vpn++ {
				va := addr.VA(0x10_0000_0000 + vpn<<addr.Shift4K)
				if _, size, ok := sys.vms[0].Translate(sys.vms[0].GuestTable(c.pid), va); ok && size == addr.Page4K {
					sample = append(sample, va)
					if sch.Holds(sys, vmid, c.pid, va, addr.Page4K) {
						held++
					}
				}
			}
			if len(sample) == 0 {
				t.Fatal("no mapped pages to sample")
			}

			removed := sys.ProcessExit(vmid, c.pid)
			if removed < held {
				t.Errorf("ProcessExit removed %d entries but Holds saw %d resident beforehand", removed, held)
			}
			if holdsNever[mode] && removed != 0 {
				t.Errorf("ProcessExit removed %d entries from a scheme with no translation structure", removed)
			}
			for _, va := range sample {
				if sch.Holds(sys, vmid, c.pid, va, addr.Page4K) {
					t.Fatalf("page %v survived ProcessExit", va)
				}
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Errorf("invariants violated after ProcessExit: %v", err)
			}
			if again := sys.ProcessExit(vmid, c.pid); again != 0 {
				t.Errorf("second ProcessExit removed %d entries, want 0", again)
			}
		})
	}
}

// TestConformanceInvariantsUnderRandomOps drives every scheme through a
// fixed-seed randomized stream of simulation bursts, demand maps,
// translations, and shootdowns, checking the full invariant battery at
// every step boundary. This is the "nothing about the op order can wedge
// a scheme's structures" clause of the registry contract.
func TestConformanceInvariantsUnderRandomOps(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig(mode)
			cfg.WarmupRefs = 0
			cfg.MaxRefs = 1
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			p := gupsParams(cfg.Cores)
			p.FootprintBytes = 8 << 20
			g := trace.NewUniform(p)
			rng := rand.New(rand.NewSource(11))
			vmid := sys.vms[0].ID()
			c := sys.cores[0]
			var touched []addr.VA
			next := uint64(0) // monotonic: a shot-down VA is never re-issued
			for step := 0; step < 60; step++ {
				switch rng.Intn(4) {
				case 0: // simulate a burst
					if err := sys.Advance(ctx, g, 2_000); err != nil {
						t.Fatal(err)
					}
				case 1: // demand-map a fresh page and translate it
					va := addr.VA(0x90_0000_0000 + next<<addr.Shift4K)
					next++
					if err := sys.touch(c, va, addr.Page4K); err != nil {
						t.Fatal(err)
					}
					c.now = c.clock
					sys.translate(c, va)
					touched = append(touched, va)
				case 2: // re-translate a previously mapped page
					if len(touched) > 0 {
						c.now = c.clock
						sys.translate(c, touched[rng.Intn(len(touched))])
					}
				case 3: // shoot a previously mapped page down
					if len(touched) > 0 {
						i := rng.Intn(len(touched))
						sys.Shootdown(vmid, c.pid, touched[i], addr.Page4K)
						touched = append(touched[:i], touched[i+1:]...)
					}
				}
				if err := sys.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

// TestConformanceDeterminism: two systems with identical configuration
// and identical generators must produce byte-identical Results — the
// property every checkpoint, golden file, and sweep resume depends on.
func TestConformanceDeterminism(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			run := func() Result {
				cfg := smallConfig(mode)
				cfg.WarmupRefs = 30_000
				cfg.MaxRefs = 20_000
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				p := gupsParams(cfg.Cores)
				p.FootprintBytes = 16 << 20
				res, err := sys.Run(context.Background(), trace.NewUniform(p), "determinism")
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two identical runs diverged:\n a=%+v\n b=%+v", a, b)
			}
		})
	}
}
