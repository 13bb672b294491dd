package dramcache

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dram"
)

// oneSet returns a cache whose tag directory is a single 2-way set, so
// the third distinct line evicts.
func oneSet(t *testing.T) *Cache {
	t.Helper()
	d, err := New(Config{SizeBytes: 2 * addr.CacheLineSize, Ways: 2, DRAM: dram.DieStacked()})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func lineAddr(line uint64) addr.HPA { return addr.HPA(line * addr.CacheLineSize) }

func TestProbeMissFillHit(t *testing.T) {
	d := MustNew(DefaultConfig())
	a := addr.HPA(0x12345 * addr.CacheLineSize)
	if lat, hit := d.Probe(0, a, false); hit || lat != 0 {
		t.Fatalf("cold probe = (%d, %v), want (0, false)", lat, hit)
	}
	if victim, dirty := d.Fill(10, a); dirty || victim != 0 {
		t.Fatalf("fill into empty set returned victim (%#x, %v)", victim, dirty)
	}
	// A different byte of the same line hits too.
	lat, hit := d.Probe(1000, a+8, false)
	if !hit || lat == 0 {
		t.Fatalf("probe after fill = (%d, %v), want a die-stacked hit", lat, hit)
	}
	s := d.Stats().Access[cache.Data]
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("tag stats = %+v, want 1 hit 1 miss", s)
	}
	if got := d.DRAMStats().Accesses; got != 2 {
		t.Errorf("die-stacked accesses = %d, want 2 (fill write + hit read)", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	if d.Stats().Access[cache.Data].Total() != 0 || d.DRAMStats().Accesses != 0 {
		t.Error("ResetStats left counters behind")
	}
	if _, hit := d.Probe(2000, a, false); !hit {
		t.Error("ResetStats dropped contents")
	}
}

func TestDirtyVictimReturnedOnEviction(t *testing.T) {
	d := oneSet(t)
	d.Fill(0, lineAddr(1))
	if _, hit := d.Probe(100, lineAddr(1), true); !hit { // a store dirties line 1
		t.Fatal("line 1 should hit")
	}
	d.Fill(200, lineAddr(2))
	victim, dirty := d.Fill(300, lineAddr(3)) // line 1 is least recent
	if !dirty || victim != 1 {
		t.Fatalf("eviction = (%#x, %v), want dirty line 1", victim, dirty)
	}
	// Line 2 was never written: its eviction needs no write-back.
	if victim, dirty := d.Fill(400, lineAddr(4)); dirty || victim != 0 {
		t.Fatalf("clean eviction returned (%#x, %v)", victim, dirty)
	}
	if got := d.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	badDRAM := dram.DieStacked()
	badDRAM.Banks = 0
	for name, cfg := range map[string]Config{
		"zero ways":       {SizeBytes: 16 << 20, Ways: 0, DRAM: dram.DieStacked()},
		"zero size":       {SizeBytes: 0, Ways: 16, DRAM: dram.DieStacked()},
		"partial line":    {SizeBytes: 1000, Ways: 2, DRAM: dram.DieStacked()},
		"three sets":      {SizeBytes: 3 * 2 * addr.CacheLineSize, Ways: 2, DRAM: dram.DieStacked()},
		"bad dram config": {SizeBytes: 16 << 20, Ways: 16, DRAM: badDRAM},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}
