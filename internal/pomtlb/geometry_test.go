package pomtlb

import (
	"testing"

	"repro/internal/addr"
)

// geometryConfig builds a POM-TLB config at a non-default capacity and
// associativity (the §4.6 ablation axes).
func geometryConfig(sizeBytes uint64, ways int) Config {
	cfg := DefaultConfig()
	cfg.SizeBytes = sizeBytes
	cfg.Ways = ways
	return cfg
}

// TestNonDefaultGeometries checks the partition carving at every
// capacity/associativity the ablation bench sweeps, plus deliberately
// awkward values: ways that don't divide the line size (3, 5) and a
// capacity whose set count is not a power of two before rounding.
func TestNonDefaultGeometries(t *testing.T) {
	for _, tc := range []struct {
		sizeMB uint64
		ways   int
	}{
		{4, 4}, {8, 4}, {32, 4}, {64, 4},
		{16, 1}, {16, 2}, {16, 8}, {16, 16},
		{16, 3}, {16, 5}, // sets span fractional lines; count rounds down
	} {
		tlb := New(geometryConfig(tc.sizeMB<<20, tc.ways))
		for _, p := range []*Partition{tlb.Small, tlb.Large} {
			if p.numSets&(p.numSets-1) != 0 {
				t.Errorf("%dMB/%d-way %s: %d sets not a power of two", tc.sizeMB, tc.ways, p.PageSize, p.numSets)
			}
			if p.SizeBytes() > tc.sizeMB<<20 {
				t.Errorf("%dMB/%d-way %s: partition overflows capacity", tc.sizeMB, tc.ways, p.PageSize)
			}
			if p.Entries() != p.numSets*uint64(tc.ways) {
				t.Errorf("%dMB/%d-way %s: entries %d", tc.sizeMB, tc.ways, p.PageSize, p.Entries())
			}
			wantLines := (uint64(tc.ways)*EntryBytes + addr.CacheLineSize - 1) / addr.CacheLineSize
			if uint64(p.LinesPerSet()) != wantLines {
				t.Errorf("%dMB/%d-way %s: LinesPerSet %d, want %d", tc.sizeMB, tc.ways, p.PageSize, p.LinesPerSet(), wantLines)
			}
		}
		// Partitions tile the range without overlap, in order.
		if tlb.Large.base != tlb.Small.base+tlb.Small.SizeBytes() {
			t.Errorf("%dMB/%d-way: large partition base %#x, small ends %#x",
				tc.sizeMB, tc.ways, tlb.Large.base, tlb.Small.base+tlb.Small.SizeBytes())
		}
		// Contains matches the carved span exactly at its edges.
		end := addr.HPA(tlb.Large.base + tlb.Large.SizeBytes())
		if !tlb.Contains(addr.HPA(tlb.cfg.BaseAddr)) || !tlb.Contains(end-1) || tlb.Contains(end) {
			t.Errorf("%dMB/%d-way: Contains edges wrong", tc.sizeMB, tc.ways)
		}
	}
}

// TestSetAddrInRangeNonDefault checks that every set address a
// non-default geometry can produce stays inside its partition and is
// set-stride aligned — the properties the cache probe path depends on.
func TestSetAddrInRangeNonDefault(t *testing.T) {
	for _, ways := range []int{2, 3, 8} {
		tlb := New(geometryConfig(8<<20, ways))
		for _, p := range []*Partition{tlb.Small, tlb.Large} {
			for i := 0; i < 4096; i++ {
				va := addr.VA(uint64(i) * 0x13579B * p.PageSize.Bytes())
				vm := addr.VMID(i % 5)
				a := uint64(p.SetAddr(va, vm))
				if a < p.base || a >= p.base+p.SizeBytes() {
					t.Fatalf("%d-way %s: SetAddr %#x outside [%#x,%#x)", ways, p.PageSize, a, p.base, p.base+p.SizeBytes())
				}
				if (a-p.base)%p.setBytes != 0 {
					t.Fatalf("%d-way %s: SetAddr %#x not set-aligned", ways, p.PageSize, a)
				}
				if idx := p.SetIndex(va, vm); idx >= p.numSets {
					t.Fatalf("%d-way %s: index %d of %d sets", ways, p.PageSize, idx, p.numSets)
				}
			}
		}
	}
}

// TestNeighborClusteringAllGeometries verifies Equation (1)'s deliberate
// property at every associativity: four consecutive small pages (same
// VPN>>2) share one set, so a single burst carries all four.
func TestNeighborClusteringAllGeometries(t *testing.T) {
	for _, ways := range []int{2, 4, 8} {
		p := New(geometryConfig(8<<20, ways)).Small
		base := addr.VA(0x4000_0000)
		// VPN of base is 4-aligned, so pages 0-3 share a set and page 4
		// starts the next cluster.
		idx0 := p.SetIndex(base, 1)
		for i := uint64(1); i < 4; i++ {
			if got := p.SetIndex(base+addr.VA(i*addr.Bytes4K), 1); got != idx0 {
				t.Errorf("%d-way: neighbour page %d in set %d, want %d", ways, i, got, idx0)
			}
		}
		if got := p.SetIndex(base+addr.VA(4*addr.Bytes4K), 1); got == idx0 {
			t.Errorf("%d-way: fifth page shares the set", ways)
		}
	}
}

// TestInsertSearchNonDefaultWays fills and re-probes partitions at odd
// associativities, then validates the structural invariants — the
// replacement and residency logic must not assume 4 ways.
func TestInsertSearchNonDefaultWays(t *testing.T) {
	for _, ways := range []int{1, 3, 8} {
		tlb := New(geometryConfig(4<<20, ways))
		p := tlb.Small
		const n = 10_000
		for i := uint64(0); i < n; i++ {
			p.Insert(Entry{Valid: true, VM: 1, PID: 2, VPN: i * 7, PFN: i, Size: addr.Page4K})
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("%d-way: %v", ways, err)
		}
		if p.count > int(p.Entries()) {
			t.Fatalf("%d-way: %d resident in %d-entry partition", ways, p.count, p.Entries())
		}
		// The most recent insert is always findable (it was just touched).
		if _, ok := p.Search(1, 2, addr.VA((n-1)*7*addr.Bytes4K)); !ok {
			t.Errorf("%d-way: most recent insert not found", ways)
		}
		if err := tlb.CheckInvariants(); err != nil {
			t.Errorf("%d-way: %v", ways, err)
		}
	}
}

// TestChunkGeometry pins the slot chunks at awkward geometries: a chunk
// holds 64 sets whatever the associativity (3 KiB at 3 ways), and a
// partition of fewer than 64 sets has one chunk of its own size. Every
// set of such a partition takes its inserts in that one chunk.
func TestChunkGeometry(t *testing.T) {
	for _, tc := range []struct {
		sizeBytes uint64
		ways      int
		chunks    int
		chunkLen  int
	}{
		{4 << 20, 3, 512, 64 * 3},
		{4 << 20, 8, 256, 64 * 8},
		{2048, 4, 1, 16 * 4}, // 16 sets a partition
	} {
		p := New(geometryConfig(tc.sizeBytes, tc.ways)).Small
		if len(p.chunks) != tc.chunks {
			t.Errorf("%d B/%d-way: %d chunks, want %d", tc.sizeBytes, tc.ways, len(p.chunks), tc.chunks)
		}
		for vpn := uint64(0); vpn < 4*p.Sets(); vpn += 4 {
			p.Insert(Entry{Valid: true, VM: 0, PID: 1, VPN: vpn, PFN: vpn, Size: addr.Page4K})
		}
		for i, c := range p.chunks {
			if len(c) != tc.chunkLen {
				t.Errorf("%d B/%d-way: chunk %d holds %d slots, want %d", tc.sizeBytes, tc.ways, i, len(c), tc.chunkLen)
			}
		}
		if err := p.CheckInvariants(); err != nil {
			t.Errorf("%d B/%d-way: %v", tc.sizeBytes, tc.ways, err)
		}
	}
}

// TestDieStackedChannelIndependent pins that each New call gets its own
// DRAM channel — shared bank state across systems would break campaign
// determinism.
func TestDieStackedChannelIndependent(t *testing.T) {
	a, b := New(DefaultConfig()), New(DefaultConfig())
	a.AccessDRAM(0, a.Small.SetAddr(0x1000, 1), 1, false)
	if got := b.DRAMStats().Accesses; got != 0 {
		t.Fatalf("sibling TLB saw %d accesses", got)
	}
}

// FuzzEntryCodec fuzzes the 16-byte entry packing (Figure 5): every
// field must survive Encode/Decode with the documented truncation (40-bit
// VPN/PFN, 2-bit LRU), and decoding is total — any 16 bytes decode
// without panicking and re-encode to a stable image.
func FuzzEntryCodec(f *testing.F) {
	f.Add(false, uint16(0), uint16(0), uint64(0), uint64(0), false, uint8(0), uint8(0))
	f.Add(true, uint16(65535), uint16(1), uint64(1)<<40-1, uint64(1)<<39, true, uint8(3), uint8(255))
	f.Fuzz(func(t *testing.T, valid bool, vm, pid uint16, vpn, pfn uint64, large bool, lru, attr uint8) {
		size := addr.Page4K
		if large {
			size = addr.Page2M
		}
		e := Entry{Valid: valid, VM: addr.VMID(vm), PID: addr.PID(pid),
			VPN: vpn, PFN: pfn, Size: size, LRU: lru, Attr: attr}
		got := DecodeEntry(e.Encode())
		want := e
		want.VPN &= 1<<40 - 1
		want.PFN &= 1<<40 - 1
		want.LRU &= 3
		if got != want {
			t.Fatalf("round trip: %+v -> %+v, want %+v", e, got, want)
		}
		// Decoding is idempotent through a second round trip.
		if again := DecodeEntry(got.Encode()); again != got {
			t.Fatalf("second round trip changed entry: %+v -> %+v", got, again)
		}
	})
}
