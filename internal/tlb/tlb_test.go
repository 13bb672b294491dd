package tlb

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/lru"
)

func entry4K(vm addr.VMID, pid addr.PID, vpn, pfn uint64) Entry {
	return Entry{VM: vm, PID: pid, VPN: vpn, PFN: pfn, Size: addr.Page4K, Valid: true}
}

func TestTable1Configs(t *testing.T) {
	for _, cfg := range []Config{L1Small(), L1Large(), L2Unified(), SharedL2(8)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if L2Unified().Entries != 1536 || L2Unified().Ways != 12 {
		t.Error("L2Unified geometry wrong")
	}
	if SharedL2(8).Entries != 1536*8 {
		t.Error("SharedL2 should combine 8 cores' capacity")
	}
}

func TestValidateRejectsBad(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "indiv", Entries: 10, Ways: 3},
		{Name: "npo2", Entries: 12, Ways: 2}, // 6 sets
		{Name: "huge", Entries: 1 << 40, Ways: 4},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("%s should be invalid", c.Name)
		}
	}
	// The entry limit leaves room for the largest TLB a scheme builds.
	if err := SharedL2(256).Validate(); err != nil {
		t.Errorf("256-core shared L2 TLB: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestLookupInsertRoundtrip(t *testing.T) {
	tl := MustNew(L2Unified())
	va := addr.VA(0x7f12_3456_7000)
	if _, ok := tl.Lookup(1, 2, va); ok {
		t.Error("cold lookup should miss")
	}
	tl.Insert(entry4K(1, 2, va.VPN(addr.Page4K), 0x42))
	e, ok := tl.Lookup(1, 2, va)
	if !ok || e.PFN != 0x42 || e.Size != addr.Page4K {
		t.Errorf("lookup after insert = %+v, %v", e, ok)
	}
}

func TestTwoPageSizesCoexist(t *testing.T) {
	tl := MustNew(L2Unified())
	va := addr.VA(0x4000_0000)
	tl.Insert(entry4K(1, 1, va.VPN(addr.Page4K), 0x10))
	tl.Insert(Entry{VM: 1, PID: 1, VPN: addr.VA(0x8000_0000).VPN(addr.Page2M), PFN: 0x20, Size: addr.Page2M, Valid: true})
	if e, ok := tl.Lookup(1, 1, va); !ok || e.Size != addr.Page4K {
		t.Errorf("4K lookup = %+v, %v", e, ok)
	}
	if e, ok := tl.Lookup(1, 1, 0x8000_0123); !ok || e.Size != addr.Page2M || e.PFN != 0x20 {
		t.Errorf("2M lookup = %+v, %v", e, ok)
	}
}

func TestVMIsolation(t *testing.T) {
	tl := MustNew(L2Unified())
	va := addr.VA(0x1000)
	tl.Insert(entry4K(1, 1, va.VPN(addr.Page4K), 0x42))
	if _, ok := tl.Lookup(2, 1, va); ok {
		t.Error("VM 2 should not see VM 1's translation")
	}
	if _, ok := tl.Lookup(1, 9, va); ok {
		t.Error("PID 9 should not see PID 1's translation")
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := Config{Name: "t", Entries: 4, Ways: 2} // 2 sets
	tl := MustNew(cfg)
	// Set 0 entries: VPNs 0, 2, 4 (all even → set 0).
	tl.Insert(entry4K(1, 1, 0, 100))
	tl.Insert(entry4K(1, 1, 2, 102))
	tl.Lookup(1, 1, 0) // touch VPN 0; VPN 2 is LRU
	victim, evicted := tl.Insert(entry4K(1, 1, 4, 104))
	if !evicted || victim.VPN != 2 {
		t.Errorf("victim = %+v, evicted = %v, want VPN 2", victim, evicted)
	}
	if !tl.LookupOnly(1, 1, 0, addr.Page4K) || !tl.LookupOnly(1, 1, 4, addr.Page4K) {
		t.Error("expected VPNs 0 and 4 resident")
	}
}

func TestInsertRefreshExisting(t *testing.T) {
	tl := MustNew(L2Unified())
	tl.Insert(entry4K(1, 1, 5, 100))
	victim, evicted := tl.Insert(entry4K(1, 1, 5, 200)) // remap
	if evicted {
		t.Errorf("refresh should not evict, got %+v", victim)
	}
	e, ok := tl.Lookup(1, 1, addr.VA(5<<12))
	if !ok || e.PFN != 200 {
		t.Errorf("remapped entry = %+v", e)
	}
	if count(tl) != 1 {
		t.Errorf("Count = %d, want 1", count(tl))
	}
}

func TestInsertInvalidIgnored(t *testing.T) {
	tl := MustNew(L2Unified())
	tl.Insert(Entry{})
	if count(tl) != 0 {
		t.Error("invalid entry should not be inserted")
	}
}

func TestInvalidatePage(t *testing.T) {
	tl := MustNew(L2Unified())
	tl.Insert(entry4K(1, 1, 7, 100))
	if !tl.InvalidatePage(1, 1, 7, addr.Page4K) {
		t.Error("InvalidatePage should find the entry")
	}
	if tl.InvalidatePage(1, 1, 7, addr.Page4K) {
		t.Error("second InvalidatePage should miss")
	}
	if _, ok := tl.Lookup(1, 1, addr.VA(7<<12)); ok {
		t.Error("entry survived shootdown")
	}
}

func TestStats(t *testing.T) {
	tl := MustNew(L2Unified())
	tl.Lookup(1, 1, 0x1000) // miss
	tl.Insert(entry4K(1, 1, 1, 1))
	tl.Lookup(1, 1, 0x1000) // hit
	s := tl.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	tl.ResetStats()
	if tl.Stats().Total() != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestSplitL1(t *testing.T) {
	l1 := DefaultSplitL1()
	va4 := addr.VA(0x1234_5000)
	va2 := addr.VA(0x8000_0000)
	l1.Insert(entry4K(1, 1, va4.VPN(addr.Page4K), 0x11))
	l1.Insert(Entry{VM: 1, PID: 1, VPN: va2.VPN(addr.Page2M), PFN: 0x22, Size: addr.Page2M, Valid: true})

	if e, ok := l1.Lookup(1, 1, va4); !ok || e.PFN != 0x11 {
		t.Errorf("4K L1 lookup = %+v, %v", e, ok)
	}
	if e, ok := l1.Lookup(1, 1, va2+0x123); !ok || e.PFN != 0x22 {
		t.Errorf("2M L1 lookup = %+v, %v", e, ok)
	}
	if _, ok := l1.Lookup(1, 1, 0xdead_0000_0000); ok {
		t.Error("unmapped lookup should miss")
	}
	if count(l1.Small) != 1 || count(l1.Large) != 1 {
		t.Error("entries routed to wrong structure")
	}
	if !l1.InvalidatePage(1, 1, va2.VPN(addr.Page2M), addr.Page2M) {
		t.Error("2M shootdown failed")
	}
	if n := l1.InvalidateProcess(1, 1); n != 1 || count(l1.Small) != 0 {
		t.Errorf("process flush removed %d entries and left %d, want 1 and 0", n, count(l1.Small))
	}
	// A joint probe records its miss on the small structure's counter.
	if l1.Small.Stats().Misses == 0 {
		t.Error("L1 misses should be counted")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	tl := MustNew(L1Small()) // 64 entries
	for vpn := uint64(0); vpn < 1000; vpn++ {
		tl.Insert(entry4K(1, 1, vpn, vpn))
	}
	if count(tl) > 64 {
		t.Errorf("Count = %d exceeds capacity", count(tl))
	}
}

// Property: inserting then looking up the same page always hits, for both
// page sizes and arbitrary IDs.
func TestInsertLookupProperty(t *testing.T) {
	tl := MustNew(L2Unified())
	f := func(raw uint64, vm uint8, pid uint8, large bool) bool {
		size := addr.Page4K
		if large {
			size = addr.Page2M
		}
		va := addr.VA(raw & (1<<48 - 1))
		e := Entry{VM: addr.VMID(vm), PID: addr.PID(pid), VPN: va.VPN(size), PFN: raw % (1 << 20), Size: size, Valid: true}
		tl.Insert(e)
		got, ok := tl.Lookup(e.VM, e.PID, va)
		return ok && got.PFN == e.PFN && got.Size == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: eviction victims were genuinely resident — re-looking them up
// misses afterwards only if the set displaced them, never spuriously.
func TestEvictionVictimProperty(t *testing.T) {
	tl := MustNew(Config{Name: "p", Entries: 8, Ways: 2})
	f := func(vpn uint16) bool {
		victim, evicted := tl.Insert(entry4K(1, 1, uint64(vpn), uint64(vpn)))
		if evicted && tl.LookupOnly(victim.VM, victim.PID, victim.VPN, victim.Size) {
			return false // victim should be gone
		}
		return tl.LookupOnly(1, 1, uint64(vpn), addr.Page4K)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidateProcess(t *testing.T) {
	tl := MustNew(L2Unified())
	for vpn := uint64(0); vpn < 5; vpn++ {
		tl.Insert(entry4K(1, 1, vpn, vpn))
		tl.Insert(entry4K(1, 2, vpn+100, vpn))
	}
	if n := tl.InvalidateProcess(1, 1); n != 5 {
		t.Errorf("removed %d, want 5", n)
	}
	if count(tl) != 5 {
		t.Errorf("PID 2's entries should survive, count = %d", count(tl))
	}
	if n := tl.InvalidateProcess(1, 9); n != 0 {
		t.Errorf("unknown PID removed %d", n)
	}
}

func TestSplitL1HugePages(t *testing.T) {
	l1 := DefaultSplitL1()
	va := addr.VA(0x40_0000_0000)
	l1.Insert(Entry{VM: 1, PID: 1, VPN: va.VPN(addr.Page1G), PFN: 0x33, Size: addr.Page1G, Valid: true})
	if e, ok := l1.Lookup(1, 1, va+777); !ok || e.PFN != 0x33 || e.Size != addr.Page1G {
		t.Errorf("1G lookup = %+v, %v", e, ok)
	}
	if count(l1.Huge) != 1 {
		t.Errorf("huge TLB count = %d", count(l1.Huge))
	}
	if !l1.InvalidatePage(1, 1, va.VPN(addr.Page1G), addr.Page1G) {
		t.Error("1G shootdown failed")
	}
}

// TestSplitL1InvalidateProcess pins that a process flush reaches all
// three L1 structures, the 1 GB one included, and spares other processes.
func TestSplitL1InvalidateProcess(t *testing.T) {
	l1 := DefaultSplitL1()
	for _, size := range []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		l1.Insert(Entry{VM: 1, PID: 1, VPN: 1, PFN: 0x10, Size: size, Valid: true})
		l1.Insert(Entry{VM: 1, PID: 2, VPN: 1, PFN: 0x20, Size: size, Valid: true})
	}
	if n := l1.InvalidateProcess(1, 1); n != 3 {
		t.Errorf("removed %d, want 3 (one per page size)", n)
	}
	for _, size := range []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		va := addr.VA(1 << size.Shift())
		if _, ok := l1.Lookup(1, 1, va); ok {
			t.Errorf("%s translation of the flushed process survived", size)
		}
		if e, ok := l1.Lookup(1, 2, va); !ok || e.PFN != 0x20 {
			t.Errorf("%s translation of PID 2 = %+v, %v; want it kept", size, e, ok)
		}
	}
}

func TestUnifiedL2Holds1G(t *testing.T) {
	tl := MustNew(L2Unified())
	va := addr.VA(0x80_0000_0000)
	tl.Insert(Entry{VM: 1, PID: 1, VPN: va.VPN(addr.Page1G), PFN: 0x44, Size: addr.Page1G, Valid: true})
	if e, ok := tl.Lookup(1, 1, va+123); !ok || e.Size != addr.Page1G {
		t.Errorf("unified 1G lookup = %+v, %v", e, ok)
	}
}

// count returns the number of valid entries in t.
func count(t *TLB) int {
	n := 0
	for si := uint64(0); si <= t.setMask; si++ {
		tags, _, _ := t.block(si)
		for _, w := range tags {
			if w&validBit != 0 {
				n++
			}
		}
	}
	return n
}

// TestSetHostBytes pins the host layout of a set: Ways tag words, Ways
// data words and one recency word, (2*Ways+1)*8 bytes — 16 B per entry,
// as the TSB's TTEs.
func TestSetHostBytes(t *testing.T) {
	for _, cfg := range []Config{L1Small(), L1Large(), L1Huge(), L2Unified(), SharedL2(8)} {
		tl := MustNew(cfg)
		sets := cfg.Entries / cfg.Ways
		if got, want := len(tl.sets)*8, sets*(2*cfg.Ways+1)*8; got != want {
			t.Errorf("%s: %d host bytes, want %d ((2*Ways+1)*8 per set)", cfg.Name, got, want)
		}
	}
}

// TestValidateRefusesWideSets pins the 16-way limit of the recency word:
// 16 ways build, 17 are refused with lru.ErrTooManyWays.
func TestValidateRefusesWideSets(t *testing.T) {
	if err := (Config{Name: "w16", Entries: 16, Ways: 16}).Validate(); err != nil {
		t.Errorf("16 ways: %v", err)
	}
	err := Config{Name: "w17", Entries: 17, Ways: 17}.Validate()
	if !errors.Is(err, lru.ErrTooManyWays) {
		t.Errorf("17 ways: Validate = %v, want lru.ErrTooManyWays", err)
	}
}

// TestInsertPanicsOnWideFields: a VPN or PFN wider than its TTE field
// would alias another page, so Insert refuses it loudly, as the TSB and
// the POM-TLB do; a probe for such a VPN misses.
func TestInsertPanicsOnWideFields(t *testing.T) {
	for _, e := range []Entry{entry4K(1, 1, 1<<36, 1), entry4K(1, 1, 1, 1<<40)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%+v) did not panic", e)
				}
			}()
			MustNew(L2Unified()).Insert(e)
		}()
	}
	tl := MustNew(L2Unified())
	tl.Insert(Entry{VM: 1, PID: 1, VPN: 5, PFN: 9, Size: addr.Page4K, Valid: true})
	// 1<<40 | 5 would OR into the VM field of the tag (VM 1 -> VM 0 | 1<<40).
	if tl.LookupOnly(0, 1, 1<<40|5, addr.Page4K) {
		t.Error("a VPN wider than the tag field hit another VM's entry")
	}
}

// TestEntryRoundTripsThroughTTE checks that every field an entry carries
// comes back from the packed tag and data words at its widest value.
func TestEntryRoundTripsThroughTTE(t *testing.T) {
	tl := MustNew(Config{Name: "rt", Entries: 4, Ways: 4})
	for _, e := range []Entry{
		{VM: 0xFFFF, PID: 0xFFFF, VPN: 1<<36 - 1, PFN: 1<<40 - 1, Size: addr.Page4K, Valid: true},
		{VM: 0, PID: 0, VPN: 0, PFN: 0, Size: addr.Page4K, Valid: true},
		{VM: 7, PID: 0x8000, VPN: 0x1234567, PFN: 0xABCDEF0123, Size: addr.Page2M, Valid: true},
		{VM: 0x8001, PID: 3, VPN: 0x3FFFF, PFN: 1<<40 - 1, Size: addr.Page1G, Valid: true},
	} {
		tl.Insert(e)
		va := addr.VA(e.VPN << e.Size.Shift())
		if got, ok := tl.lookupSize(e.VM, e.PID, va, e.Size); !ok || got != e {
			t.Errorf("round trip of %+v = %+v, %v", e, got, ok)
		}
	}
	if err := tl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// CheckInvariants must catch a corrupted set: a recency word that ranks
// a way twice, and a way holding data without a valid tag.
func TestCheckInvariantsCatchesCorruptSets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(tl *TLB)
		want    string
	}{
		{"way ranked twice", func(tl *TLB) {
			_, _, order := tl.block(1)
			*order = 0
		}, "does not rank its 2 ways"},
		{"data without tag", func(tl *TLB) {
			_, data, _ := tl.block(0)
			data[1] = 3
		}, "without its valid bit"},
	} {
		tl := MustNew(Config{Name: "tiny", Entries: 4, Ways: 2}) // 2 sets
		tl.Insert(entry4K(1, 1, 1, 1))                           // set 1
		if err := tl.CheckInvariants(); err != nil {
			t.Fatalf("%s: clean TLB: %v", tc.name, err)
		}
		tc.corrupt(tl)
		if err := tl.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}
