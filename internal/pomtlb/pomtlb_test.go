package pomtlb

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func validEntry(vm addr.VMID, pid addr.PID, vpn, pfn uint64, size addr.PageSize) Entry {
	return Entry{Valid: true, VM: vm, PID: pid, VPN: vpn, PFN: pfn, Size: size}
}

// Encode packs the entry into the 16-byte memory image DecodeEntry
// unpacks.
func (e Entry) Encode() [EntryBytes]byte {
	var b [EntryBytes]byte
	var flags byte
	if e.Valid {
		flags |= 1
	}
	if e.Size == addr.Page2M {
		flags |= 2
	}
	flags |= (e.LRU & 3) << 2
	b[0] = flags
	b[1] = e.Attr
	binary.LittleEndian.PutUint16(b[2:4], uint16(e.VM))
	binary.LittleEndian.PutUint16(b[4:6], uint16(e.PID))
	put40(b[6:11], e.VPN)
	put40(b[11:16], e.PFN)
	return b
}

// put40 stores the low 40 bits of v into 5 bytes, little endian.
func put40(dst []byte, v uint64) {
	_ = dst[4]
	dst[0] = byte(v)
	dst[1] = byte(v >> 8)
	dst[2] = byte(v >> 16)
	dst[3] = byte(v >> 24)
	dst[4] = byte(v >> 32)
}

func TestEntryEncodeDecodeRoundtrip(t *testing.T) {
	e := Entry{Valid: true, VM: 3, PID: 77, VPN: 0x7_1234_5678, PFN: 0x9_8765_4321,
		Size: addr.Page2M, LRU: 2, Attr: 0xAB}
	got := DecodeEntry(e.Encode())
	if got != e {
		t.Errorf("roundtrip: got %+v, want %+v", got, e)
	}
}

func TestEntryEncodeSize(t *testing.T) {
	e := validEntry(1, 1, 1, 1, addr.Page4K)
	b := e.Encode()
	if len(b) != 16 {
		t.Errorf("entry is %d bytes, want 16 (Figure 5)", len(b))
	}
	if b[0]&1 != 1 {
		t.Error("valid bit not set")
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
	if tl.Small.count != 1 || tl.Small.inserts != 1 {
		t.Errorf("count=%d inserts=%d", tl.Small.count, tl.Small.inserts)
	}
	hm := tl.Small.lookups
	if hm.Hits != 1 || hm.Misses != 1 {
		t.Errorf("stats = %+v", hm)
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

func TestInsertInvalidPanics(t *testing.T) {
	tl := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tl.Small.Insert(Entry{Size: addr.Page4K})
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
// images fill exactly one 64 B line, and the inserted entry's image
// decodes back to it.
func TestSetImage(t *testing.T) {
	tl := New(DefaultConfig())
	e := validEntry(1, 1, 42, 0x99, addr.Page4K)
	tl.Small.Insert(e)
	set := tl.Small.SetView(addr.VA(42<<12), 1)
	if n := len(set) * EntryBytes; n != addr.CacheLineSize {
		t.Fatalf("set image = %d bytes, want 64", n)
	}
	found := false
	for _, w := range set {
		if d := DecodeEntry(w.Encode()); d.Valid && d.VPN == 42 && d.PFN == 0x99 {
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

// TestHitRateCombined pins that each partition counts its own searches,
// so the two combine into the POM-TLB's hit ratio.
func TestHitRateCombined(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Small.Insert(validEntry(1, 1, 1, 1, addr.Page4K))
	tl.Small.Search(1, 1, 0x1000) // hit
	tl.Large.Search(1, 1, 0x1000) // miss
	hm := tl.Small.lookups
	hm.Add(tl.Large.lookups)
	if got := hm.Ratio(); got != 0.5 {
		t.Errorf("combined hit ratio = %f", got)
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
