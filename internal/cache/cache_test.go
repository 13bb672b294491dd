package cache

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTable1Configs(t *testing.T) {
	cases := []struct {
		cfg  Config
		sets uint64
	}{
		{L1D(), 64},
		{L2(), 1024},
		{L3(), 8192},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.cfg.Name, err)
		}
		if got := c.cfg.Sets(); got != c.sets {
			t.Errorf("%s sets = %d, want %d", c.cfg.Name, got, c.sets)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "ways", SizeBytes: 1024, Ways: 0},
		{Name: "odd", SizeBytes: 1000, Ways: 2},
		{Name: "npo2", SizeBytes: 3 * 64 * 2, Ways: 2}, // 3 sets
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("%s should be invalid", c.Name)
		}
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

func TestMissThenFillThenHit(t *testing.T) {
	c := MustNew(L1D())
	if c.Access(0x100, false, Data) {
		t.Error("cold access should miss")
	}
	if ev := c.Fill(0x100, false, Data); ev.Valid {
		t.Error("fill into empty set should not evict")
	}
	if !c.Access(0x100, false, Data) {
		t.Error("access after fill should hit")
	}
	s := c.Stats()
	if s.Access[Data].Hits != 1 || s.Access[Data].Misses != 1 {
		t.Errorf("stats = %+v", s.Access[Data])
	}
}

func TestWriteMarksDirtyAndWritebackOnEvict(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 2 * 64, Ways: 2, Latency: 1} // 1 set, 2 ways
	c := MustNew(cfg)
	c.Fill(1, true, Data) // dirty
	c.Fill(2, false, Data)
	ev := c.Fill(3, false, Data) // evicts LRU = line 1
	if !ev.Valid || ev.Line != 1 || !ev.Dirty {
		t.Errorf("eviction = %+v, want dirty line 1", ev)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestLRUOrder(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 2 * 64, Ways: 2, Latency: 1}
	c := MustNew(cfg)
	c.Fill(1, false, Data)
	c.Fill(2, false, Data)
	c.Access(1, false, Data) // touch 1, making 2 the LRU
	ev := c.Fill(3, false, Data)
	if ev.Line != 2 {
		t.Errorf("evicted %d, want 2 (LRU)", ev.Line)
	}
	if !c.Lookup(1) || !c.Lookup(3) || c.Lookup(2) {
		t.Error("contents after eviction wrong")
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 2 * 64, Ways: 2, Latency: 1}
	c := MustNew(cfg)
	c.Fill(1, false, Data)
	c.Fill(2, false, Data)
	if ev := c.Fill(1, true, Data); ev.Valid {
		t.Errorf("re-fill should not evict, got %+v", ev)
	}
	// Line 1 is now MRU and dirty; filling 3 evicts 2.
	ev := c.Fill(3, false, Data)
	if ev.Line != 2 {
		t.Errorf("evicted %d, want 2", ev.Line)
	}
	c.Access(1, false, Data)
	ev = c.Fill(4, false, Data) // evicts 3
	if ev.Line != 3 {
		t.Errorf("evicted %d, want 3", ev.Line)
	}
	if !ev.Valid {
		t.Error("eviction expected")
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(L1D())
	c.Fill(7, true, TLBEntry)
	present, dirty := c.Invalidate(7)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v, %v), want (true, true)", present, dirty)
	}
	if c.Lookup(7) {
		t.Error("line still present after invalidate")
	}
	present, _ = c.Invalidate(7)
	if present {
		t.Error("double invalidate should miss")
	}
}

func TestKindStatsSeparated(t *testing.T) {
	c := MustNew(L1D())
	c.Access(1, false, Data) // miss
	c.Fill(1, false, Data)
	c.Access(1, false, Data)     // hit
	c.Access(2, false, TLBEntry) // miss
	c.Fill(2, false, TLBEntry)
	c.Access(2, false, TLBEntry) // hit
	c.Access(3, false, TLBEntry) // miss
	s := c.Stats()
	if got := s.Access[Data].Ratio(); got != 0.5 {
		t.Errorf("data hit ratio = %f", got)
	}
	if got := s.Access[TLBEntry].Ratio(); got != 1.0/3.0 {
		t.Errorf("TLB-entry hit ratio = %f", got)
	}
}

func TestResidentTracking(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 2 * 64, Ways: 2, Latency: 1}
	c := MustNew(cfg)
	c.Fill(1, false, Data)
	c.Fill(2, false, TLBEntry)
	if c.resident[Data] != 1 || c.resident[TLBEntry] != 1 {
		t.Errorf("resident = %d data, %d tlb", c.resident[Data], c.resident[TLBEntry])
	}
	c.Fill(3, false, Data) // evicts line 1 (LRU, Data)
	if c.resident[Data] != 1 || c.resident[TLBEntry] != 1 {
		t.Errorf("after evict: %d data, %d tlb", c.resident[Data], c.resident[TLBEntry])
	}
	if c.Stats().Evictions[Data] != 1 {
		t.Errorf("evictions = %v", c.Stats().Evictions)
	}
	c.Invalidate(2)
	if c.resident[TLBEntry] != 0 {
		t.Error("invalidate should decrement resident count")
	}
}

func TestDifferentSetsDoNotConflict(t *testing.T) {
	c := MustNew(L1D()) // 64 sets
	for line := uint64(0); line < 64; line++ {
		c.Fill(line, false, Data)
	}
	for line := uint64(0); line < 64; line++ {
		if !c.Lookup(line) {
			t.Errorf("line %d missing: different sets should not conflict", line)
		}
	}
}

func TestKindString(t *testing.T) {
	if Data.String() != "data" || TLBEntry.String() != "tlb-entry" {
		t.Error("Kind.String() wrong")
	}
}

func TestResetStats(t *testing.T) {
	c := MustNew(L1D())
	c.Access(1, false, Data)
	c.ResetStats()
	if c.Stats().Access[Data].Total() != 0 {
		t.Error("ResetStats did not clear")
	}
}

// Property: resident counts never exceed capacity, and a filled line is
// always immediately look-up-able.
func TestFillLookupProperty(t *testing.T) {
	cfg := Config{Name: "prop", SizeBytes: 8 * 64, Ways: 2, Latency: 1} // 4 sets
	c := MustNew(cfg)
	capacity := cfg.SizeBytes / 64
	f := func(raw uint16, write, tlb bool) bool {
		line := uint64(raw % 64)
		kind := Data
		if tlb {
			kind = TLBEntry
		}
		c.Fill(line, write, kind)
		if !c.Lookup(line) {
			return false
		}
		return c.resident[Data]+c.resident[TLBEntry] <= capacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses always equals accesses issued.
func TestAccessCountProperty(t *testing.T) {
	c := MustNew(L2())
	var issued uint64
	f := func(raw uint16, write bool) bool {
		issued++
		if !c.Access(uint64(raw), write, Data) {
			c.Fill(uint64(raw), write, Data)
		}
		return c.Stats().Access[Data].Total() == issued
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an access immediately after a fill of the same line hits.
func TestTemporalLocalityProperty(t *testing.T) {
	c := MustNew(L3())
	f := func(raw uint32) bool {
		line := uint64(raw)
		c.Fill(line, false, Data)
		return c.Access(line, false, Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidateKind(t *testing.T) {
	c := MustNew(L1D())
	c.Fill(1, false, Data)
	c.Fill(2, true, TLBEntry)
	c.Fill(3, false, TLBEntry)
	if n := c.InvalidateKind(TLBEntry); n != 2 {
		t.Errorf("InvalidateKind removed %d, want 2", n)
	}
	if c.resident[TLBEntry] != 0 || c.resident[Data] != 1 {
		t.Errorf("resident after flush: tlb=%d data=%d", c.resident[TLBEntry], c.resident[Data])
	}
	if c.Lookup(2) || c.Lookup(3) || !c.Lookup(1) {
		t.Error("wrong lines flushed")
	}
	if n := c.InvalidateKind(TLBEntry); n != 0 {
		t.Errorf("second flush removed %d", n)
	}
}

// CheckInvariants must catch a corrupted set block: a packed word moved
// into a set its line does not index (a tag probe would never find it
// there), and a word that carries flags but no line.
func TestCheckInvariantsCatchesCorruptWords(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 4 * 2 * 64, Ways: 2, Latency: 1} // 4 sets
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cache)
		want    string
	}{
		{"wrong set", func(c *Cache) {
			from, _ := c.block(1)
			to, _ := c.block(0)
			to[1], from[0] = from[0], 0
		}, "line 0x1 resident in set 0"},
		{"flags without line", func(c *Cache) {
			words, _ := c.block(2)
			words[0] = dirtyBit
		}, "without a line"},
	} {
		c := MustNew(cfg)
		c.Fill(1, true, TLBEntry) // set 1
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: clean cache: %v", tc.name, err)
		}
		tc.corrupt(c)
		if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}
