package oracle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/pomtlb"
	"repro/internal/tlb"
	"repro/internal/victima"
)

// randVA returns a page-aligned VA inside a small footprint so lookups
// collide, sets fill, and evictions fire.
func randVA(rng *rand.Rand, size addr.PageSize) addr.VA {
	const pages = 1 << 12
	return addr.VA(uint64(rng.Intn(pages)) << size.Shift())
}

func randSize(rng *rand.Rand) addr.PageSize {
	if rng.Intn(10) == 0 {
		return addr.Page2M
	}
	return addr.Page4K
}

func TestRefTLBAgreement(t *testing.T) {
	h := NewHarness()
	prod := tlb.MustNew(tlb.Config{Name: "test", Entries: 64, Ways: 4})
	NewRefTLB(h, prod)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		vm := addr.VMID(rng.Intn(2))
		pid := addr.PID(rng.Intn(3))
		size := randSize(rng)
		va := randVA(rng, size)
		switch op := rng.Intn(100); {
		case op < 55:
			prod.Lookup(vm, pid, va)
		case op < 90:
			prod.Insert(tlb.Entry{
				VM: vm, PID: pid, VPN: va.VPN(size), PFN: uint64(rng.Int63n(1 << 30)),
				Size: size, Valid: true,
			})
		case op < 96:
			prod.InvalidatePage(vm, pid, va.VPN(size), size)
		default:
			prod.InvalidateProcess(vm, pid)
		}
	}
	if err := h.Err(); err != nil {
		t.Fatalf("reference diverged from production TLB: %v", err)
	}
	if err := prod.CheckInvariants(); err != nil {
		t.Fatalf("production TLB invariants: %v", err)
	}
	if h.Decisions() == 0 {
		t.Fatal("no decisions checked")
	}
}

func TestRefCacheAgreement(t *testing.T) {
	for _, prio := range []cache.Priority{cache.NoPriority, cache.PreferTLB, cache.PreferData} {
		t.Run(prio.String(), func(t *testing.T) {
			h := NewHarness()
			prod := cache.MustNew(cache.Config{
				Name: "test", SizeBytes: 16 << 10, Ways: 4, Latency: 1, Priority: prio,
			})
			NewRefCache(h, prod)
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < 200_000; i++ {
				line := uint64(rng.Intn(1 << 11))
				write := rng.Intn(3) == 0
				kind := cache.Data
				if rng.Intn(4) == 0 {
					kind = cache.TLBEntry
				}
				switch op := rng.Intn(100); {
				case op < 80:
					if !prod.Access(line, write, kind) {
						prod.Fill(line, write, kind)
					}
				case op < 95:
					prod.Invalidate(line)
				default:
					prod.InvalidateKind(kind)
				}
			}
			if err := h.Err(); err != nil {
				t.Fatalf("reference diverged from production cache: %v", err)
			}
			if err := prod.CheckInvariants(); err != nil {
				t.Fatalf("production cache invariants: %v", err)
			}
		})
	}
}

// maxLine is the largest cache line address: a line is a host physical
// address >> 6, so lines stay below 2^58 — the limit of the production
// cache's packed tag words.
const maxLine = 1<<58 - 1

// TestRefCacheGeometries drives every operation against the reference at
// each associativity the simulator uses and under each priority policy,
// checking the production cache's invariants after every operation. Some
// lines sit at the top of the line space, where the packed encoding ends.
func TestRefCacheGeometries(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		for _, prio := range []cache.Priority{cache.NoPriority, cache.PreferTLB, cache.PreferData} {
			t.Run(fmt.Sprintf("%dway-%s", ways, prio), func(t *testing.T) {
				const sets = 8
				h := NewHarness()
				prod := cache.MustNew(cache.Config{
					Name: "test", SizeBytes: sets * uint64(ways) * addr.CacheLineSize,
					Ways: ways, Latency: 1, Priority: prio,
				})
				NewRefCache(h, prod)
				rng := rand.New(rand.NewSource(int64(ways)*10 + int64(prio)))
				span := 3 * sets * ways // enough lines to keep every set full
				for i := 0; i < 10_000; i++ {
					line := uint64(rng.Intn(span))
					if rng.Intn(4) == 0 {
						line = maxLine - uint64(rng.Intn(span))
					}
					write := rng.Intn(3) == 0
					kind := cache.Data
					if rng.Intn(3) == 0 {
						kind = cache.TLBEntry
					}
					switch op := rng.Intn(100); {
					case op < 60:
						if !prod.Access(line, write, kind) {
							prod.Fill(line, write, kind)
						}
					case op < 85:
						prod.Fill(line, write, kind) // refreshes a present line
					case op < 99:
						prod.Invalidate(line)
					default:
						prod.InvalidateKind(kind)
					}
					if err := prod.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
				if err := h.Err(); err != nil {
					t.Fatalf("reference diverged from production cache: %v", err)
				}
				if h.Decisions() == 0 {
					t.Fatal("no decisions checked")
				}
			})
		}
	}
}

// TestRefCacheEncodingEdges takes the lowest and highest line addresses
// through hit, dirty eviction and invalidation: line 0 packs to the
// smallest valid word, maxLine to the largest.
func TestRefCacheEncodingEdges(t *testing.T) {
	for _, edge := range []uint64{0, maxLine} {
		t.Run(fmt.Sprintf("%#x", edge), func(t *testing.T) {
			h := NewHarness()
			prod := cache.MustNew(cache.Config{Name: "test", SizeBytes: 4 * 2 * addr.CacheLineSize, Ways: 2, Latency: 1})
			NewRefCache(h, prod)
			check := func(step string) {
				t.Helper()
				if err := prod.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
			if prod.Access(edge, false, cache.TLBEntry) {
				t.Fatal("cold access hit")
			}
			prod.Fill(edge, true, cache.TLBEntry)
			check("fill")
			if !prod.Lookup(edge) || !prod.Access(edge, false, cache.TLBEntry) {
				t.Fatal("filled line not found")
			}
			// Two more lines of the same set push the edge line out.
			prod.Fill(edge^4, false, cache.Data)
			ev := prod.Fill(edge^8, false, cache.Data)
			check("evict")
			want := cache.Eviction{Valid: true, Line: edge, Dirty: true, Kind: cache.TLBEntry}
			if ev != want {
				t.Fatalf("eviction = %+v, want %+v", ev, want)
			}
			prod.Fill(edge, false, cache.Data)
			if present, dirty := prod.Invalidate(edge); !present || dirty {
				t.Fatalf("Invalidate = (%v, %v), want (true, false)", present, dirty)
			}
			check("invalidate")
			if prod.Lookup(edge) {
				t.Fatal("line present after invalidation")
			}
			if err := h.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRefDRAMAgreement(t *testing.T) {
	for _, cfg := range []dram.Config{dram.DieStacked(), dram.DDR4_2133()} {
		t.Run(cfg.Name, func(t *testing.T) {
			h := NewHarness()
			prod := dram.MustNew(cfg)
			NewRefDRAM(h, prod)
			rng := rand.New(rand.NewSource(3))
			now := uint64(0)
			for i := 0; i < 200_000; i++ {
				// Mix of streaming (row hits) and random (misses/conflicts),
				// advancing time far enough to cross refresh intervals.
				a := addr.HPA(uint64(rng.Intn(1<<20)) * addr.CacheLineSize)
				prod.Access(now, a, rng.Intn(4) == 0)
				now += uint64(rng.Intn(200))
			}
			if err := h.Err(); err != nil {
				t.Fatalf("reference diverged from production DRAM: %v", err)
			}
			if err := prod.CheckInvariants(); err != nil {
				t.Fatalf("production DRAM invariants: %v", err)
			}
			if prod.Stats().Refreshes == 0 {
				t.Fatal("test never crossed a refresh interval")
			}
		})
	}
}

// TestRefPOMAgreement replays random operations on production POM-TLBs
// against the reference: a 1 MiB TLB small enough that sets fill and
// evict; the default 16 MiB TLB, whose inserts land in three narrow VA
// ranges so most of its 4 KiB slot chunks stay unwritten while every
// other operation also reaches anywhere, unwritten chunks included; and a
// 3-way TLB, whose 64-set chunks are not 4 KiB. Process flushes are
// rare (1 in 10,000 operations): each empties a sixth of the TLB, and
// any more often would keep every set from filling.
func TestRefPOMAgreement(t *testing.T) {
	wide := func(rng *rand.Rand, size addr.PageSize) addr.VA {
		return addr.VA(uint64(rng.Intn(1<<17)) << size.Shift())
	}
	narrow := func(rng *rand.Rand, size addr.PageSize) addr.VA {
		bases := [...]uint64{0x100, 0x3_4000, 0x7_f000_0000}
		return addr.VA((bases[rng.Intn(len(bases))] + uint64(rng.Intn(1024))) << size.Shift())
	}
	narrowOrAnywhere := func(rng *rand.Rand, size addr.PageSize) addr.VA {
		if rng.Intn(4) == 0 {
			return addr.VA(uint64(rng.Int63n(1<<(48-size.Shift()))) << size.Shift())
		}
		return narrow(rng, size)
	}
	for _, tc := range []struct {
		name      string
		sizeBytes uint64
		ways      int
		ops       int
		va        func(*rand.Rand, addr.PageSize) addr.VA
		// insertVA, when set, redraws an insert's VA.
		insertVA func(*rand.Rand, addr.PageSize) addr.VA
	}{
		{"1MiB", 1 << 20, 4, 300_000, wide, nil},
		{"16MiB-narrow", 16 << 20, 4, 100_000, narrowOrAnywhere, narrow},
		{"1MiB-3way", 1 << 20, 3, 100_000, wide, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHarness()
			cfg := pomtlb.DefaultConfig()
			cfg.SizeBytes = tc.sizeBytes
			cfg.Ways = tc.ways
			prod := pomtlb.New(cfg)
			NewRefPOM(h, prod.Small)
			NewRefPOM(h, prod.Large)
			// chunks records the 64-set chunks inserts reached.
			chunks := map[[2]uint64]bool{}
			hits, evictions := 0, 0
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < tc.ops; i++ {
				vm := addr.VMID(rng.Intn(2))
				pid := addr.PID(rng.Intn(3))
				size := randSize(rng)
				part := prod.Partition(size)
				va := tc.va(rng, size)
				switch op := rng.Intn(10_000); {
				case op < 5000:
					if _, ok := part.Search(vm, pid, va); ok {
						hits++
					}
				case op < 9200:
					if tc.insertVA != nil {
						va = tc.insertVA(rng, size)
					}
					if _, evicted := part.Insert(pomtlb.Entry{
						Valid: true, VM: vm, PID: pid, VPN: va.VPN(size),
						PFN: uint64(rng.Int63n(1 << 30)), Size: size,
					}); evicted {
						evictions++
					}
					chunks[[2]uint64{uint64(size), part.SetIndex(va, vm) / 64}] = true
				case op < 9999:
					part.InvalidatePage(vm, pid, va.VPN(size))
				default:
					part.InvalidateProcess(vm, pid)
				}
			}
			if err := h.Err(); err != nil {
				t.Fatalf("reference diverged from production POM-TLB: %v", err)
			}
			if err := prod.CheckInvariants(); err != nil {
				t.Fatalf("production POM-TLB invariants: %v", err)
			}
			if hits == 0 || evictions == 0 {
				t.Errorf("%d search hits and %d evictions: the input misses a path", hits, evictions)
			}
			if tc.sizeBytes == 16<<20 {
				total := (prod.Small.Sets() + prod.Large.Sets()) / 64
				if n := uint64(len(chunks)); n*2 > total {
					t.Errorf("inserts reached %d of %d chunks; the narrow ranges should leave most unwritten", n, total)
				}
			}
		})
	}
}

func TestRefVictimaAgreement(t *testing.T) {
	h := NewHarness()
	prod := victima.MustNew(victima.Config{Name: "test", Sets: 64, DonatedWays: 2}, 1<<52)
	NewRefVictima(h, prod)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200_000; i++ {
		vm := addr.VMID(rng.Intn(2))
		pid := addr.PID(rng.Intn(3))
		size := randSize(rng)
		va := randVA(rng, size)
		switch op := rng.Intn(100); {
		case op < 50:
			prod.Lookup(vm, pid, va)
		case op < 88:
			prod.Insert(tlb.Entry{
				VM: vm, PID: pid, VPN: va.VPN(size), PFN: uint64(rng.Int63n(1 << 30)),
				Size: size, Valid: true,
			})
		case op < 94:
			prod.InvalidatePage(vm, pid, va.VPN(size), size)
		case op < 97:
			prod.InvalidateProcess(vm, pid)
		default:
			// The L2 evicted one of the store's lines out from under it.
			prod.DropLine(1<<52 + uint64(rng.Intn(64)))
		}
	}
	if err := h.Err(); err != nil {
		t.Fatalf("reference diverged from production victima store: %v", err)
	}
	if err := prod.CheckInvariants(); err != nil {
		t.Fatalf("production victima invariants: %v", err)
	}
	if h.Decisions() == 0 {
		t.Fatal("no decisions checked")
	}
}

// The watchdog must itself be tested: attaching a reference to a model
// that already holds state the reference never saw must produce
// divergences, proving the oracle actually detects drift.

func TestRefTLBDetectsDrift(t *testing.T) {
	prod := tlb.MustNew(tlb.Config{Name: "test", Entries: 64, Ways: 4})
	e := tlb.Entry{VM: 1, PID: 2, VPN: 0x42, PFN: 0x99, Size: addr.Page4K, Valid: true}
	prod.Insert(e) // before the shadow attaches: invisible to the reference
	h := NewHarness()
	NewRefTLB(h, prod)
	prod.Lookup(1, 2, addr.VA(0x42<<12))
	if h.Divergences() == 0 {
		t.Fatal("oracle missed a production entry the reference never saw")
	}
}

func TestRefCacheDetectsDrift(t *testing.T) {
	prod := cache.MustNew(cache.Config{Name: "test", SizeBytes: 16 << 10, Ways: 4, Latency: 1})
	prod.Fill(0x42, false, cache.Data)
	h := NewHarness()
	NewRefCache(h, prod)
	prod.Access(0x42, false, cache.Data)
	if h.Divergences() == 0 {
		t.Fatal("oracle missed a production line the reference never saw")
	}
}

func TestRefDRAMDetectsDrift(t *testing.T) {
	prod := dram.MustNew(dram.DieStacked())
	prod.Access(0, 0x1000, false) // opens a row before the shadow attaches
	h := NewHarness()
	NewRefDRAM(h, prod)
	prod.Access(100, 0x1000, false) // production row hit, reference expects closed
	if h.Divergences() == 0 {
		t.Fatal("oracle missed an open row the reference never saw")
	}
}

func TestRefPOMDetectsDrift(t *testing.T) {
	prod := pomtlb.New(pomtlb.DefaultConfig())
	e := pomtlb.Entry{Valid: true, VM: 1, PID: 2, VPN: 0x42, PFN: 0x99, Size: addr.Page4K}
	prod.Small.Insert(e)
	h := NewHarness()
	NewRefPOM(h, prod.Small)
	prod.Small.Search(1, 2, addr.VA(0x42<<12))
	if h.Divergences() == 0 {
		t.Fatal("oracle missed a production entry the reference never saw")
	}
}

func TestRefVictimaDetectsDrift(t *testing.T) {
	prod := victima.MustNew(victima.Config{Name: "test", Sets: 64, DonatedWays: 2}, 1<<52)
	e := tlb.Entry{VM: 1, PID: 2, VPN: 0x42, PFN: 0x99, Size: addr.Page4K, Valid: true}
	prod.Insert(e) // before the shadow attaches: invisible to the reference
	h := NewHarness()
	NewRefVictima(h, prod)
	prod.Lookup(1, 2, addr.VA(0x42<<12))
	if h.Divergences() == 0 {
		t.Fatal("oracle missed a production entry the reference never saw")
	}
}

func TestHarnessErrSummarises(t *testing.T) {
	h := NewHarness()
	if err := h.Err(); err != nil {
		t.Fatalf("empty harness reports error: %v", err)
	}
	for i := 0; i < maxStored+10; i++ {
		h.Reportf("divergence %d", i)
	}
	if h.Divergences() != maxStored+10 {
		t.Fatalf("got %d divergences, want %d", h.Divergences(), maxStored+10)
	}
	if got := len(h.Messages()); got != maxStored {
		t.Fatalf("stored %d messages, want cap %d", got, maxStored)
	}
	if h.Err() == nil {
		t.Fatal("diverged harness reports nil error")
	}
}
