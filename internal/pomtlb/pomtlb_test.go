package pomtlb

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/addr"
)

func validEntry(vm addr.VMID, pid addr.PID, vpn, pfn uint64, size addr.PageSize) Entry {
	return Entry{Valid: true, VM: vm, PID: pid, VPN: vpn, PFN: pfn, Size: size}
}

func TestEntryEncodeDecodeRoundtrip(t *testing.T) {
	e := Entry{Valid: true, VM: 3, PID: 77, VPN: 0x7_1234_5678, PFN: 0x9_8765_4321,
		Size: addr.Page2M, LRU: 2, Attr: 0xAB}
	got := DecodeEntry(e.Encode())
	if got != e {
		t.Errorf("roundtrip: got %+v, want %+v", got, e)
	}
}

// TestEntryEncodeSize pins Figure 5's image: 16 bytes, and written out
// little endian its fields sit at the documented byte offsets.
func TestEntryEncodeSize(t *testing.T) {
	e := Entry{Valid: true, VM: 0x0201, PID: 0x0403, VPN: 0x09_0807_0605, PFN: 0x0E_0D0C_0B0A,
		Size: addr.Page2M, LRU: 2, Attr: 0xAB}
	w := e.Encode()
	if n := unsafe.Sizeof(w); n != EntryBytes {
		t.Errorf("entry image is %d bytes, want %d (Figure 5)", n, EntryBytes)
	}
	var b [EntryBytes]byte
	binary.LittleEndian.PutUint64(b[0:8], w[0])
	binary.LittleEndian.PutUint64(b[8:16], w[1])
	want := [EntryBytes]byte{1 | 2 | 2<<2, 0xAB, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xA, 0xB, 0xC, 0xD, 0xE}
	if b != want {
		t.Errorf("image bytes = % x, want % x", b, want)
	}
	var inv Entry
	if DecodeEntry(inv.Encode()).Valid {
		t.Error("invalid entry round-trips as valid")
	}
}

func TestEntryString(t *testing.T) {
	if (Entry{}).String() != "entry{invalid}" {
		t.Error("invalid entry string")
	}
	if validEntry(1, 2, 3, 4, addr.Page4K).String() == "" {
		t.Error("valid entry string empty")
	}
}

// Property: Encode/Decode is the identity on well-formed entries.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(vm, pid uint16, vpn, pfn uint64, large, valid bool, lru, attrRaw uint8) bool {
		size := addr.Page4K
		if large {
			size = addr.Page2M
		}
		e := Entry{
			Valid: valid, VM: addr.VMID(vm), PID: addr.PID(pid),
			VPN: vpn & (1<<40 - 1), PFN: pfn & (1<<40 - 1),
			Size: size, LRU: lru & 3, Attr: attrRaw,
		}
		return DecodeEntry(e.Encode()) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	tl := New(DefaultConfig())
	// 16 MB split in half: each partition 8 MB = 131072 sets of 64 B.
	if tl.Small.Sets() != 131072 || tl.Large.Sets() != 131072 {
		t.Errorf("sets = %d / %d, want 131072 each", tl.Small.Sets(), tl.Large.Sets())
	}
	if tl.Small.Entries() != 524288 {
		t.Errorf("small entries = %d", tl.Small.Entries())
	}
	if tl.Small.LinesPerSet() != 1 {
		t.Errorf("4-way set should be one 64B line, got %d", tl.Small.LinesPerSet())
	}
	// Partitions are adjacent and non-overlapping.
	if tl.Large.base != tl.Small.base+tl.Small.SizeBytes() {
		t.Error("large partition should start right after small")
	}
	// Slot storage follows what is written: a fresh TLB holds no chunk,
	// and one insert allocates one 4 KiB chunk of 64 four-way sets.
	if n := chunkBytes(tl.Small) + chunkBytes(tl.Large); n != 0 {
		t.Errorf("fresh TLB holds %d bytes of slot chunks, want 0", n)
	}
	tl.Small.Insert(validEntry(1, 1, 42, 7, addr.Page4K))
	if n := chunkBytes(tl.Small) + chunkBytes(tl.Large); n != 4096 {
		t.Errorf("one insert allocated %d bytes of slot chunks, want 4096", n)
	}
}

// chunkBytes returns the host bytes p's written slot chunks hold.
func chunkBytes(p *Partition) uint64 {
	n := uint64(0)
	for _, c := range p.chunks {
		n += uint64(len(c)) * uint64(unsafe.Sizeof(c[0]))
	}
	return n
}

// TestUnwrittenSetsReadWithoutAllocating pins that only Insert writes a
// chunk: searching, invalidating and decoding a set no insert reached
// miss, allocate nothing and leave the partition without a chunk, and
// the set decodes as Ways invalid entries, as a written empty set does.
func TestUnwrittenSetsReadWithoutAllocating(t *testing.T) {
	tl := New(DefaultConfig())
	p := tl.Small
	va := addr.VA(0x7f00_1234_5000)
	var buf [8]Entry
	var set []Entry
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := p.Search(1, 1, va); ok {
			t.Error("search of an unwritten set hit")
		}
		if p.InvalidatePage(1, 1, va.VPN(addr.Page4K)) || tl.InvalidateProcess(1, 1) != 0 {
			t.Error("invalidation of an unwritten set found an entry")
		}
		set = p.AppendSet(buf[:0], va, 1)
	})
	if allocs != 0 {
		t.Errorf("reads of unwritten sets allocated %.1f times per run, want 0", allocs)
	}
	if n := chunkBytes(tl.Small) + chunkBytes(tl.Large); n != 0 {
		t.Errorf("reads wrote %d bytes of slot chunks, want 0", n)
	}
	if len(set) != 4 {
		t.Fatalf("unwritten set decodes to %d entries, want 4", len(set))
	}
	// A neighbour set in the same, now written, chunk decodes the same.
	p.Insert(validEntry(1, 1, va.VPN(addr.Page4K)+4, 7, addr.Page4K))
	written := p.AppendSet(nil, va, 1)
	for i := range set {
		if set[i] != written[i] || set[i].Valid {
			t.Errorf("way %d: unwritten set decodes %+v, written empty set %+v", i, set[i], written[i])
		}
	}
	if err := tl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMBToBytes(t *testing.T) {
	for _, mb := range []uint64{1, 16, math.MaxUint64 >> 20} {
		if got, err := MBToBytes(mb); err != nil || got != mb<<20 {
			t.Errorf("MBToBytes(%d) = %d, %v; want %d", mb, got, err, mb<<20)
		}
	}
	// 2^44 MB wraps to 0 bytes and 2^44 + 16 MB to 16 MiB under a bare
	// shift; both must be refused, not run as a zero or 16 MiB table.
	for _, mb := range []uint64{1 << 44, 1<<44 + 16, math.MaxUint64} {
		if got, err := MBToBytes(mb); err == nil {
			t.Errorf("MBToBytes(%d) = %d, want an overflow error", mb, got)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: 1 << 20, Ways: 0, SmallFraction: 0.5},
		{SizeBytes: 1 << 20, Ways: 4, SmallFraction: 0},
		{SizeBytes: 1 << 20, Ways: 4, SmallFraction: 1},
		{SizeBytes: 1 << 20, Ways: 4, SmallFraction: 0.5, BaseAddr: 3},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
}

func TestSetAddrWithinPartition(t *testing.T) {
	tl := New(DefaultConfig())
	for _, va := range []addr.VA{0, 0x1000, 0xdead_beef_f000, 1<<48 - 1} {
		a := tl.Small.SetAddr(va, 1)
		if uint64(a) < tl.Small.base || uint64(a) >= tl.Small.base+tl.Small.SizeBytes() {
			t.Errorf("small SetAddr(%v) = %#x out of range", va, uint64(a))
		}
		if uint64(a)%64 != 0 {
			t.Errorf("SetAddr not line aligned: %#x", uint64(a))
		}
		if !tl.Contains(a) {
			t.Errorf("Contains(%#x) = false", uint64(a))
		}
	}
	if tl.Contains(addr.HPA(tl.cfg.SizeBytes)) {
		t.Error("address past the TLB should not be contained")
	}
}

func TestVMIDXorSpreadsSets(t *testing.T) {
	tl := New(DefaultConfig())
	va := addr.VA(0x1000)
	if tl.Small.SetIndex(va, 1) == tl.Small.SetIndex(va, 2) {
		t.Error("different VMs should map the same page to different sets")
	}
}

func TestSearchInsert(t *testing.T) {
	tl := New(DefaultConfig())
	va := addr.VA(0x7f00_1234_5000)
	vpn := va.VPN(addr.Page4K)
	if _, ok := tl.Small.Search(1, 1, va); ok {
		t.Error("cold search should miss")
	}
	tl.Small.Insert(validEntry(1, 1, vpn, 0x99, addr.Page4K))
	e, ok := tl.Small.Search(1, 1, va)
	if !ok || e.PFN != 0x99 {
		t.Errorf("search = %+v, %v", e, ok)
	}
	if tl.Small.count != 1 {
		t.Errorf("count=%d, want 1", tl.Small.count)
	}
	// Re-inserting a resident translation updates it in place.
	tl.Small.Insert(validEntry(1, 1, vpn, 0x9a, addr.Page4K))
	if e, ok := tl.Small.Search(1, 1, va); !ok || e.PFN != 0x9a || tl.Small.count != 1 {
		t.Errorf("after update: search = %+v, %v; count=%d, want PFN 0x9a and count 1", e, ok, tl.Small.count)
	}
}

func TestInsertWrongPartitionPanics(t *testing.T) {
	tl := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tl.Small.Insert(validEntry(1, 1, 1, 1, addr.Page2M))
}

// TestInsertInvalidPanics pins that Insert panics on an entry only a bug
// can produce: an invalid one, or one whose VPN or PFN does not fit
// Figure 5's 40-bit fields and would alias another page.
func TestInsertInvalidPanics(t *testing.T) {
	tl := New(DefaultConfig())
	for name, e := range map[string]Entry{
		"invalid":    {Size: addr.Page4K},
		"41-bit VPN": validEntry(1, 1, 1<<40, 1, addr.Page4K),
		"41-bit PFN": validEntry(1, 1, 1, 1<<40, addr.Page4K),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s entry inserted without a panic", name)
				}
			}()
			tl.Small.Insert(e)
		}()
	}
}

func TestTwoBitLRUReplacement(t *testing.T) {
	cfg := DefaultConfig()
	tl := New(cfg)
	p := tl.Small
	n := p.Sets()
	// Four VPNs in the same set: with neighbour clustering the set index
	// is VPN>>2 masked, so aliases are 4×Sets pages apart.
	vpns := []uint64{0, 4 * n, 8 * n, 12 * n}
	for i, v := range vpns {
		p.Insert(validEntry(1, 1, v, uint64(i), addr.Page4K))
	}
	// Touch the first three so the fourth decays to LRU.
	for _, v := range vpns[:3] {
		p.Search(1, 1, addr.VA(v<<12))
	}
	victim, evicted := p.Insert(validEntry(1, 1, 16*n, 99, addr.Page4K))
	if !evicted || victim.VPN != vpns[3] {
		t.Errorf("victim = %+v (evicted=%v), want VPN %#x", victim, evicted, vpns[3])
	}
	if p.count != 4 {
		t.Errorf("count = %d, want 4 (set stays full)", p.count)
	}
}

func TestInsertRefreshDoesNotGrow(t *testing.T) {
	tl := New(DefaultConfig())
	e := validEntry(1, 1, 42, 1, addr.Page4K)
	tl.Small.Insert(e)
	e.PFN = 7
	victim, evicted := tl.Small.Insert(e)
	if evicted {
		t.Errorf("refresh evicted %+v", victim)
	}
	got, _ := tl.Small.Search(1, 1, addr.VA(42<<12))
	if got.PFN != 7 {
		t.Errorf("refresh did not update PFN: %+v", got)
	}
	if tl.Small.count != 1 {
		t.Errorf("count = %d", tl.Small.count)
	}
}

// TestInvalidatePageAndVM pins that a page shootdown is scoped to its
// VM: VM 2's translation of the same VPN survives VM 1's shootdown.
func TestInvalidatePageAndVM(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Small.Insert(validEntry(1, 1, 10, 1, addr.Page4K))
	tl.Large.Insert(validEntry(1, 1, 20, 2, addr.Page2M))
	tl.Small.Insert(validEntry(2, 1, 10, 3, addr.Page4K))

	if !tl.InvalidatePage(1, 1, 10, addr.Page4K) {
		t.Error("InvalidatePage should succeed")
	}
	if tl.InvalidatePage(1, 1, 10, addr.Page4K) {
		t.Error("double invalidate should fail")
	}
	if tl.Small.count != 1 || tl.Large.count != 1 {
		t.Errorf("counts = %d/%d; VM 1's 2M entry and VM 2's entry should survive",
			tl.Small.count, tl.Large.count)
	}
}

// TestSetImage pins Figure 5's layout: a 4-way set's 16-byte entry
// images fill exactly one 64 B line, and the inserted entry decodes back
// from its set.
func TestSetImage(t *testing.T) {
	tl := New(DefaultConfig())
	e := validEntry(1, 1, 42, 0x99, addr.Page4K)
	tl.Small.Insert(e)
	set := tl.Small.set(tl.Small.SetIndex(addr.VA(42<<12), 1))
	if n := len(set) * int(unsafe.Sizeof(set[0])); n != addr.CacheLineSize {
		t.Fatalf("set image = %d bytes, want 64", n)
	}
	found := false
	for _, d := range tl.Small.AppendSet(nil, addr.VA(42<<12), 1) {
		if d.Valid && d.VPN == 42 && d.PFN == 0x99 {
			found = true
		}
	}
	if !found {
		t.Error("inserted entry not present in set image")
	}
}

func TestAccessDRAMTiming(t *testing.T) {
	tl := New(DefaultConfig())
	a := tl.Small.SetAddr(0x1000, 1)
	r1 := tl.AccessDRAM(0, a, 1, false)
	if r1.Latency == 0 {
		t.Error("DRAM access should take time")
	}
	// Adjacent set in the same row, accessed before a refresh closes it:
	// row-buffer hit.
	r2 := tl.AccessDRAM(1_000, a+64, 1, false)
	if !r2.RowBufferHit {
		t.Error("adjacent set should row-buffer hit")
	}
	if tl.DRAMStats().Accesses != 2 {
		t.Errorf("accesses = %d", tl.DRAMStats().Accesses)
	}
}

func TestAccessDRAMMultiLine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ways = 8 // 128 B sets: two bursts
	tl := New(cfg)
	if tl.Small.LinesPerSet() != 2 {
		t.Fatalf("LinesPerSet = %d", tl.Small.LinesPerSet())
	}
	a := tl.Small.SetAddr(0x1000, 1)
	r := tl.AccessDRAM(0, a, tl.Small.LinesPerSet(), false)
	if tl.DRAMStats().Accesses != 2 {
		t.Errorf("8-way set should cost two bursts, got %d", tl.DRAMStats().Accesses)
	}
	single := New(DefaultConfig())
	rs := single.AccessDRAM(0, single.Small.SetAddr(0x1000, 1), 1, false)
	if r.Latency <= rs.Latency {
		t.Error("two-burst set fetch should be slower than one")
	}
}

// TestHitRateCombined pins that each partition answers only for its own
// page size, so a POM-TLB hit is a hit in the one partition the size
// predictor picks: a 4 KB translation hits in Small and misses in Large.
func TestHitRateCombined(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Small.Insert(validEntry(1, 1, 1, 1, addr.Page4K))
	if _, ok := tl.Small.Search(1, 1, 0x1000); !ok {
		t.Error("4 KB translation missed in the small partition")
	}
	if _, ok := tl.Large.Search(1, 1, 0x1000); ok {
		t.Error("4 KB translation hit in the large partition")
	}
	if tl.Small.count != 1 || tl.Large.count != 0 {
		t.Errorf("counts small=%d large=%d, want 1 and 0", tl.Small.count, tl.Large.count)
	}
}

func TestCapacitySweepGeometry(t *testing.T) {
	for _, mb := range []uint64{8, 16, 32} {
		cfg := DefaultConfig()
		cfg.SizeBytes = mb << 20
		tl := New(cfg)
		if got := tl.Small.SizeBytes() + tl.Large.SizeBytes(); got != mb<<20 {
			t.Errorf("%dMB config maps %d bytes", mb, got)
		}
	}
}

// Property: SetIndex is always within range and stable; entries inserted
// are findable unless evicted by ≥ Ways conflicting inserts.
func TestSetIndexProperty(t *testing.T) {
	tl := New(DefaultConfig())
	f := func(raw uint64, vm uint16) bool {
		va := addr.VA(raw & (1<<48 - 1))
		i := tl.Small.SetIndex(va, addr.VMID(vm))
		j := tl.Large.SetIndex(va, addr.VMID(vm))
		return i < tl.Small.Sets() && j < tl.Large.Sets()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: insert-then-search hits with the right PFN.
func TestInsertSearchProperty(t *testing.T) {
	tl := New(DefaultConfig())
	f := func(raw uint64, pfn uint32, vm, pid uint8, large bool) bool {
		size := addr.Page4K
		if large {
			size = addr.Page2M
		}
		va := addr.VA(raw & (1<<48 - 1))
		p := tl.Partition(size)
		p.Insert(validEntry(addr.VMID(vm), addr.PID(pid), va.VPN(size), uint64(pfn), size))
		e, ok := p.Search(addr.VMID(vm), addr.PID(pid), va)
		return ok && e.PFN == uint64(pfn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidateProcess(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Small.Insert(validEntry(1, 1, 1, 1, addr.Page4K))
	tl.Small.Insert(validEntry(1, 2, 2, 2, addr.Page4K))
	tl.Large.Insert(validEntry(1, 1, 3, 3, addr.Page2M))
	if n := tl.InvalidateProcess(1, 1); n != 2 {
		t.Errorf("removed %d, want 2", n)
	}
	if tl.Small.count != 1 || tl.Large.count != 0 {
		t.Errorf("counts after exit: small=%d large=%d", tl.Small.count, tl.Large.count)
	}
}
