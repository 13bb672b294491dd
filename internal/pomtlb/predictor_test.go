package pomtlb

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestPredictorDefaultsTo4K(t *testing.T) {
	var p Predictor
	if p.PredictSize(0x1234_5000) != addr.Page4K {
		t.Error("fresh predictor should predict 4KB")
	}
	if p.PredictBypass(0x1234_5000) {
		t.Error("fresh predictor should not bypass")
	}
}

func TestSizePredictorLearns(t *testing.T) {
	var p Predictor
	va := addr.VA(0x4000_0000)
	p.UpdateSize(va, addr.Page2M) // scored incorrect, learns 2M
	if p.PredictSize(va) != addr.Page2M {
		t.Error("predictor should learn 2MB")
	}
	p.UpdateSize(va, addr.Page2M) // scored correct
	if got := p.SizeStats().Ratio(); got != 0.5 {
		t.Errorf("accuracy = %f, want 0.5", got)
	}
	p.UpdateSize(va, addr.Page4K) // flips back
	if p.PredictSize(va) != addr.Page4K {
		t.Error("predictor should flip back to 4KB")
	}
}

func TestBypassPredictorLearns(t *testing.T) {
	var p Predictor
	va := addr.VA(0x1000)
	p.UpdateBypass(va, true) // incorrect (was false), learns true
	if !p.PredictBypass(va) {
		t.Error("should learn to bypass")
	}
	p.UpdateBypass(va, true) // correct
	if got := p.BypassStats().Ratio(); got != 0.5 {
		t.Errorf("bypass accuracy = %f", got)
	}
	if p.BypassStats().Total() != 2 || p.SizeStats().Total() != 0 {
		t.Error("counters mixed up")
	}
}

func TestPredictorIndexUses9BitsAbovePageOffset(t *testing.T) {
	var p Predictor
	a := addr.VA(0x0000_1000) // index bits = 1
	b := addr.VA(0x0000_1FFF) // same page → same index
	c := addr.VA(0x0000_2000) // next page → different index
	p.UpdateSize(a, addr.Page2M)
	if p.PredictSize(b) != addr.Page2M {
		t.Error("same page should share a predictor slot")
	}
	if p.PredictSize(c) != addr.Page4K {
		t.Error("adjacent page should use a different slot")
	}
	// Aliasing: 512 slots wrap every 2 MB of 4 KB pages.
	alias := addr.VA(uint64(a) + PredictorEntries<<addr.Shift4K)
	if p.PredictSize(alias) != addr.Page2M {
		t.Error("addresses 2MB apart should alias to the same slot")
	}
}

func TestPredictorAccuracyEmptyIsZero(t *testing.T) {
	var p Predictor
	if p.SizeStats().Ratio() != 0 || p.BypassStats().Ratio() != 0 {
		t.Error("no updates → zero accuracy")
	}
}

// Property: after UpdateSize(va, s), PredictSize(va) == s.
func TestSizeLearnsProperty(t *testing.T) {
	var p Predictor
	f := func(raw uint64, large bool) bool {
		size := addr.Page4K
		if large {
			size = addr.Page2M
		}
		va := addr.VA(raw & (1<<48 - 1))
		p.UpdateSize(va, size)
		return p.PredictSize(va) == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a stable page size is predicted perfectly after one training
// pass (the mechanism behind the paper's 95% accuracy).
func TestStableWorkloadHighAccuracy(t *testing.T) {
	var p Predictor
	// Region A (2 MB pages), region B (4 KB pages), disjoint slots.
	for round := 0; round < 10; round++ {
		for i := uint64(0); i < 200; i++ {
			va := addr.VA(0x4000_0000 + i<<21)
			p.UpdateSize(va, addr.Page2M)
		}
	}
	if acc := p.SizeStats().Ratio(); acc < 0.85 {
		t.Errorf("stable-workload accuracy = %f, want high", acc)
	}
}
