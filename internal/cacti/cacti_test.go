package cacti

import (
	"testing"
	"testing/quick"
)

func TestMonotoneInCapacity(t *testing.T) {
	m := Default()
	prev := 0.0
	for cap := uint64(16 << 10); cap <= 64<<20; cap *= 2 {
		ns := m.AccessNS(cap)
		if ns <= prev {
			t.Errorf("latency not increasing at %d bytes: %f <= %f", cap, ns, prev)
		}
		prev = ns
	}
}

func TestNormalizedBaseIsOne(t *testing.T) {
	if got := Default().Normalized(16 << 10); got != 1 {
		t.Errorf("Normalized(16KB) = %f", got)
	}
}

func TestFigure4Shape(t *testing.T) {
	m := Default()
	// The paper's point: SRAM does not scale. The curve should roughly
	// double by a few hundred KB and reach ~an order of magnitude by 16 MB.
	at256K := m.Normalized(256 << 10)
	if at256K < 1.5 || at256K > 3.5 {
		t.Errorf("Normalized(256KB) = %f, want ≈ 2", at256K)
	}
	at16M := m.Normalized(16 << 20)
	if at16M < 6 || at16M > 20 {
		t.Errorf("Normalized(16MB) = %f, want ≈ 10", at16M)
	}
}

func TestAccessCycles(t *testing.T) {
	// A 16 KB array at 4 GHz (4 cycles per ns) should be a handful of
	// cycles, in line with Table 1's 4-cycle L1.
	if cyc := Default().AccessNS(16<<10) * 4; cyc < 1 || cyc > 8 {
		t.Errorf("16KB at 4GHz = %f cycles", cyc)
	}
}

func TestSweep(t *testing.T) {
	pts := Default().Sweep()
	if len(pts) != 11 { // 16KB..16MB doubling
		t.Fatalf("sweep has %d points", len(pts))
	}
	if pts[0].CapacityBytes != 16<<10 || pts[len(pts)-1].CapacityBytes != 16<<20 {
		t.Error("sweep range wrong")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Normalized <= pts[i-1].Normalized {
			t.Error("sweep not monotone")
		}
	}
}

func TestPanicsBelowOneLine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Default().AccessNS(32)
}

// Property: doubling capacity always increases latency but never by more
// than ~√2 + decoder step (the asymptotic wire-dominated growth rate).
func TestGrowthRateProperty(t *testing.T) {
	m := Default()
	f := func(raw uint8) bool {
		cap := uint64(16<<10) << (raw % 10)
		r := m.AccessNS(cap*2) / m.AccessNS(cap)
		return r > 1 && r < 1.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
