package victima

import (
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/tlb"
)

// newStore builds a store of sets blocks of ways entries at line base 1000.
func newStore(t *testing.T, sets uint64, ways int) *Store {
	t.Helper()
	s, err := New(Config{Name: "test", Sets: sets, DonatedWays: ways}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entry is a valid translation of (vm 1, pid pid) for vpn at size.
func entry(pid addr.PID, vpn uint64, size addr.PageSize) tlb.Entry {
	return tlb.Entry{VM: 1, PID: pid, VPN: vpn, PFN: vpn + 7, Size: size, Valid: true}
}

func TestValidate(t *testing.T) {
	for name, c := range map[string]Config{
		"negative ways":       {DonatedWays: -1},
		"more ways than PTEs": {DonatedWays: 9},
		"non-power-of-two":    {Sets: 12, DonatedWays: 2},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, c)
		}
	}
	for name, c := range map[string]Config{
		"default":          DefaultConfig(),
		"degenerate":       {DonatedWays: 0},
		"full block":       {Sets: 16, DonatedWays: 8},
		"derived set size": {Sets: 0, DonatedWays: 2},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := New(Config{DonatedWays: 2}, 0); err == nil {
		t.Error("New accepted a positive donation with unresolved sets")
	}
}

func TestInsertAndLookupBothPageSizes(t *testing.T) {
	s := newStore(t, 8, 2)
	small := addr.VA(0x1234_5000)
	large := addr.VA(0x4060_0000)

	e4 := entry(3, small.VPN(addr.Page4K), addr.Page4K)
	si, _, evicted := s.Insert(e4)
	if evicted || si != e4.VPN&7 {
		t.Fatalf("4 KB insert landed in set %d (evicted %v), want set %d", si, evicted, e4.VPN&7)
	}
	e2 := entry(3, large.VPN(addr.Page2M), addr.Page2M)
	if si, _, _ := s.Insert(e2); si != e2.VPN&7 {
		t.Fatalf("2 MB insert landed in set %d, want %d", si, e2.VPN&7)
	}

	if got, gsi, ok := s.Lookup(1, 3, small+0x10); !ok || got != e4 || gsi != e4.VPN&7 {
		t.Errorf("4 KB lookup = %+v set %d hit %v", got, gsi, ok)
	}
	if got, gsi, ok := s.Lookup(1, 3, large+0x1_2345); !ok || got != e2 || gsi != e2.VPN&7 {
		t.Errorf("2 MB lookup = %+v set %d hit %v", got, gsi, ok)
	}
	if _, _, ok := s.Lookup(1, 4, small); ok {
		t.Error("another process hit the entry")
	}
	if _, _, ok := s.Lookup(2, 3, large); ok {
		t.Error("another VM hit the entry")
	}
	if st := s.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits and 2 misses", st)
	}
	if s.count != 2 || !s.LookupOnly(1, 3, e2.VPN, addr.Page2M) {
		t.Errorf("count %d, 2 MB entry present %v", s.count, s.LookupOnly(1, 3, e2.VPN, addr.Page2M))
	}

	// Re-inserting a present entry refreshes it in place.
	e4.PFN = 99
	if _, _, evicted := s.Insert(e4); evicted || s.count != 2 {
		t.Errorf("refresh evicted %v, count %d", evicted, s.count)
	}
	if got, _, _ := s.Lookup(1, 3, small); got.PFN != 99 {
		t.Errorf("refresh kept PFN %d", got.PFN)
	}
}

func TestVictimChoiceInAFullSet(t *testing.T) {
	// One set of three: a 2 MB entry (least recently used) and two 4 KB
	// entries. The victim is the LRU 4 KB entry, not the LRU entry.
	s := newStore(t, 1, 3)
	big := entry(1, 10, addr.Page2M)
	a := entry(1, 20, addr.Page4K)
	b := entry(1, 30, addr.Page4K)
	for _, e := range []tlb.Entry{big, a, b} {
		if _, _, evicted := s.Insert(e); evicted {
			t.Fatalf("insert of %+v evicted from a set with free ways", e)
		}
	}
	s.Lookup(1, 1, addr.VA(a.VPN<<12)) // a is now newer than b
	_, victim, evicted := s.Insert(entry(1, 40, addr.Page4K))
	if !evicted || victim != b {
		t.Errorf("victim = %+v (evicted %v), want the LRU 4 KB entry %+v", victim, evicted, b)
	}
	if s.count != 3 || !s.LookupOnly(1, 1, big.VPN, addr.Page2M) {
		t.Error("the 2 MB entry was evicted while 4 KB entries remained")
	}

	// An all-2 MB set falls back to plain LRU.
	s = newStore(t, 1, 2)
	old, young := entry(1, 1, addr.Page2M), entry(1, 2, addr.Page2M)
	s.Insert(old)
	s.Insert(young)
	if _, victim, evicted := s.Insert(entry(1, 3, addr.Page2M)); !evicted || victim != old {
		t.Errorf("victim = %+v (evicted %v), want the LRU entry %+v", victim, evicted, old)
	}
}

func TestDropLineEmptiesOneBlock(t *testing.T) {
	s := newStore(t, 4, 2)
	s.Insert(entry(1, 1, addr.Page4K)) // set 1
	s.Insert(entry(1, 5, addr.Page4K)) // set 1
	s.Insert(entry(1, 2, addr.Page4K)) // set 2
	if n := s.DropLine(s.Line(1)); n != 2 {
		t.Errorf("DropLine dropped %d entries, want 2", n)
	}
	if s.count != 1 || s.Occupied(1) || !s.Occupied(2) {
		t.Errorf("count %d, block 1 occupied %v, block 2 occupied %v", s.count, s.Occupied(1), s.Occupied(2))
	}
	if n := s.DropLine(s.Line(0) - 1); n != 0 || s.count != 1 {
		t.Errorf("a line outside the store dropped %d entries", n)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInvalidateCounts(t *testing.T) {
	s := newStore(t, 4, 2)
	s.Insert(entry(1, 1, addr.Page4K))
	s.Insert(entry(1, 2, addr.Page2M))
	s.Insert(entry(2, 3, addr.Page4K))
	s.Insert(tlb.Entry{VM: 2, PID: 1, VPN: 4, Size: addr.Page4K, Valid: true}) // same PID, other VM

	if !s.InvalidatePage(1, 1, 2, addr.Page2M) {
		t.Error("present page reported absent")
	}
	if s.InvalidatePage(1, 1, 2, addr.Page2M) || s.InvalidatePage(1, 1, 1, addr.Page2M) {
		t.Error("absent page reported present")
	}
	if s.count != 3 {
		t.Errorf("count %d after one page shootdown, want 3", s.count)
	}
	if n := s.InvalidateProcess(1, 1); n != 1 {
		t.Errorf("InvalidateProcess(1, 1) = %d, want 1", n)
	}
	if n := s.InvalidateProcess(1, 9); n != 0 {
		t.Errorf("InvalidateProcess of an absent process = %d", n)
	}
	if s.count != 2 || !s.LookupOnly(2, 1, 4, addr.Page4K) || !s.LookupOnly(1, 2, 3, addr.Page4K) {
		t.Errorf("count %d; the other VM's and process's entries must survive", s.count)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	build := func() *Store {
		s := newStore(t, 4, 2)
		s.Insert(entry(1, 1, addr.Page4K)) // set 1, slot 2
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for name, tc := range map[string]struct {
		corrupt func(s *Store)
		want    string
	}{
		"misplaced entry": {func(s *Store) {
			s.slots[4] = slot{entry: entry(1, 1, addr.Page4K)} // vpn 1 in set 2
			s.slots[2] = slot{}
		}, "belongs in"},
		"duplicate entry": {func(s *Store) {
			s.slots[3] = s.slots[2]
			s.count++
		}, "duplicate"},
		"wrong count": {func(s *Store) { s.count++ }, "count"},
	} {
		s := build()
		tc.corrupt(s)
		if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error about %q", name, err, tc.want)
		}
	}
}
