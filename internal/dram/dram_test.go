package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestConfigValidate(t *testing.T) {
	good := DieStacked()
	if err := good.Validate(); err != nil {
		t.Fatalf("DieStacked invalid: %v", err)
	}
	if err := DDR4_2133().Validate(); err != nil {
		t.Fatalf("DDR4 invalid: %v", err)
	}
	bad := good
	bad.BusMHz = 0
	if bad.Validate() == nil {
		t.Error("zero bus clock should be invalid")
	}
	bad = good
	bad.Banks = 0
	if bad.Validate() == nil {
		t.Error("zero banks should be invalid")
	}
	bad = good
	bad.RowBytes = 100
	if bad.Validate() == nil {
		t.Error("non-line-multiple row should be invalid")
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

func TestCycleConversion(t *testing.T) {
	c := DieStacked()
	// 11 bus cycles at 1 GHz = 11 ns = 44 CPU cycles at 4 GHz.
	if got := c.cpuCycles(11); got != 44 {
		t.Errorf("cpuCycles(11) = %d, want 44", got)
	}
	// 64 B over 32 B/cycle DDR = 2 bus cycles = 8 CPU cycles.
	if got := c.BurstCycles(); got != 8 {
		t.Errorf("BurstCycles = %d, want 8", got)
	}
	d := DDR4_2133()
	// 64 B over 16 B/cycle = 4 bus cycles at 1066 MHz ≈ 16 CPU cycles.
	if got := d.BurstCycles(); got != 16 {
		t.Errorf("DDR4 BurstCycles = %d, want 16", got)
	}
}

func TestRowBufferHitSequence(t *testing.T) {
	ch := MustNew(DieStacked())
	// First access: bank closed -> row miss (activate).
	r1 := ch.Access(0, 0x0, false)
	if r1.RowBufferHit {
		t.Error("first access should not be a row hit")
	}
	// Same line region, same row -> hit, and cheaper.
	r2 := ch.Access(1_000, 0x40, false)
	if !r2.RowBufferHit {
		t.Error("second access to same row should hit")
	}
	if r2.Latency >= r1.Latency {
		t.Errorf("row hit (%d) should be faster than activate (%d)", r2.Latency, r1.Latency)
	}
}

func TestRowConflictIsSlowest(t *testing.T) {
	cfg := DieStacked()
	ch := MustNew(cfg)
	linesPerRow := cfg.RowBytes / addr.CacheLineSize
	rowStride := linesPerRow * uint64(cfg.Banks) * addr.CacheLineSize

	open := ch.Access(0, 0, false)                           // activate
	hit := ch.Access(1_000, 64, false)                       // row hit
	conflict := ch.Access(2_000, addr.HPA(rowStride), false) // same bank, new row
	if conflict.Bank != open.Bank {
		t.Fatalf("test geometry wrong: banks %d vs %d", conflict.Bank, open.Bank)
	}
	if conflict.RowBufferHit {
		t.Error("conflict access should not hit")
	}
	if !(conflict.Latency > open.Latency && open.Latency > hit.Latency) {
		t.Errorf("want conflict > activate > hit, got %d, %d, %d",
			conflict.Latency, open.Latency, hit.Latency)
	}
}

func TestBankBusyAddsWait(t *testing.T) {
	ch := MustNew(DieStacked())
	first := ch.Access(0, 0, false)
	// Immediately access the same bank again: must wait for busyUntil.
	second := ch.Access(0, 64, false)
	if second.Latency <= first.Latency-second.Latency && ch.Stats().TotalWait == 0 {
		t.Error("back-to-back same-bank access should record wait")
	}
	if ch.Stats().TotalWait == 0 {
		t.Error("TotalWait should be nonzero for back-to-back accesses")
	}
}

func TestDifferentBanksOverlapOnlyOnBus(t *testing.T) {
	cfg := DieStacked()
	ch := MustNew(cfg)
	linesPerRow := cfg.RowBytes / addr.CacheLineSize
	bankStride := linesPerRow * addr.CacheLineSize // next bank, same upper row
	a := ch.Access(0, 0, false)
	b := ch.Access(0, addr.HPA(bankStride), false)
	if a.Bank == b.Bank {
		t.Fatalf("expected different banks, both %d", a.Bank)
	}
	// Second access still serializes on the shared data bus but should not
	// pay a full extra activate wait beyond the bus occupancy.
	if b.Latency > a.Latency+cfg.cpuCycles(cfg.TRCD+cfg.TCAS)+ch.cfg.BurstCycles()+cfg.CtrlOverhead {
		t.Errorf("cross-bank access too slow: %d vs %d", b.Latency, a.Latency)
	}
}

func TestStatsAccounting(t *testing.T) {
	ch := MustNew(DieStacked())
	ch.Access(0, 0, false)
	ch.Access(10_000, 64, true)
	s := ch.Stats()
	if s.Accesses != 2 || s.Reads != 1 || s.Writes != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.RowHits != 1 || s.RowMisses != 1 {
		t.Errorf("row stats = %+v", s)
	}
	if s.RowBufferHitRate() != 0.5 {
		t.Errorf("RBH = %f", s.RowBufferHitRate())
	}
	if s.TotalCycle == 0 {
		t.Error("TotalCycle should be positive")
	}
	ch.ResetStats()
	if ch.Stats().Accesses != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestEmptyStats(t *testing.T) {
	var s Stats
	if s.RowBufferHitRate() != 0 {
		t.Error("empty stats should report zeros")
	}
}

func TestSequentialStreamHighRBH(t *testing.T) {
	ch := MustNew(DieStacked())
	var a addr.HPA
	for i := 0; i < 10_000; i++ {
		ch.Access(uint64(i)*100, a, false)
		a += addr.CacheLineSize
	}
	if rbh := ch.Stats().RowBufferHitRate(); rbh < 0.9 {
		t.Errorf("sequential stream RBH = %f, want > 0.9", rbh)
	}
}

func TestRandomStreamLowRBH(t *testing.T) {
	ch := MustNew(DieStacked())
	x := uint64(0x12345)
	for i := 0; i < 10_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		ch.Access(uint64(i)*1000, addr.HPA(x%(1<<30))&^63, false)
	}
	if rbh := ch.Stats().RowBufferHitRate(); rbh > 0.3 {
		t.Errorf("random stream RBH = %f, want < 0.3", rbh)
	}
}

// Property: decompose is stable and within geometry bounds, and two
// addresses in the same 2 KB-aligned region of a bank map to the same row.
func TestDecomposeProperty(t *testing.T) {
	ch := MustNew(DieStacked())
	f := func(raw uint64) bool {
		a := addr.HPA(raw & ((1 << 40) - 1))
		b1, r1 := ch.decompose(a)
		b2, r2 := ch.decompose(a)
		if b1 != b2 || r1 != r2 {
			return false
		}
		return b1 >= 0 && b1 < ch.cfg.Banks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: latency is always at least controller overhead + CAS + burst.
func TestLatencyLowerBoundProperty(t *testing.T) {
	cfg := DieStacked()
	minLat := cfg.CtrlOverhead + cfg.cpuCycles(cfg.TCAS) + cfg.BurstCycles()
	ch := MustNew(cfg)
	now := uint64(0)
	f := func(raw uint32) bool {
		now += 10_000 // keep banks idle so wait ≈ 0
		r := ch.Access(now, addr.HPA(raw)&^63, false)
		return r.Latency >= minLat
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	cfg := DieStacked()
	cfg.TREFI = 1000
	cfg.TRFC = 100
	ch := MustNew(cfg)
	ch.Access(0, 0, false)
	// Same row again before the refresh: hit.
	if !ch.Access(10, 64, false).RowBufferHit {
		t.Fatal("pre-refresh access should row-hit")
	}
	// After the refresh interval the row is closed again.
	r := ch.Access(2500, 128, false)
	if r.RowBufferHit {
		t.Error("post-refresh access should not row-hit")
	}
	if ch.Stats().Refreshes == 0 {
		t.Error("refreshes not counted")
	}
}

// TestRefreshCatchUpIsOneStep pins that a long gap between accesses
// retires all its refresh windows, leaving the bank as the last window
// left it: an access 50 cycles into the millionth refresh waits exactly
// as one 50 cycles into the first does. The windows retire in one step;
// a trace of 2^32-cycle gaps used to cost 128k loop steps per bank per
// access.
func TestRefreshCatchUpIsOneStep(t *testing.T) {
	cfg := DieStacked()
	cfg.TREFI, cfg.TRFC = 1000, 400
	short, long := MustNew(cfg), MustNew(cfg)
	short.Access(0, 0, false)
	long.Access(0, 0, false)
	a := short.Access(1_350, 64, false)
	b := long.Access(1_000_000_350, 64, false)
	if a != b || b.RowBufferHit || b.Latency <= 50 {
		t.Errorf("after the millionth refresh %+v, after the first %+v; want equal, with a closed row and a wait", b, a)
	}
	if n := long.Stats().Refreshes; n != 1_000_000 {
		t.Errorf("refreshes = %d, want 1000000", n)
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := DieStacked()
	cfg.TREFI = 0
	ch := MustNew(cfg)
	ch.Access(0, 0, false)
	if !ch.Access(1_000_000_000, 64, false).RowBufferHit {
		t.Error("without refresh the row stays open indefinitely")
	}
	if ch.Stats().Refreshes != 0 {
		t.Error("refresh counted while disabled")
	}
}
