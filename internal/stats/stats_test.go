package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHitMissBasics(t *testing.T) {
	var h HitMiss
	h.Hit()
	h.Hit()
	h.Miss()
	if h.Total() != 3 {
		t.Errorf("Total = %d", h.Total())
	}
	if got := h.Ratio(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Ratio = %f", got)
	}
	if got := h.MissRatio(); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("MissRatio = %f", got)
	}
}

func TestHitMissRecord(t *testing.T) {
	var h HitMiss
	h.Record(true)
	h.Record(false)
	h.Record(false)
	if h.Hits != 1 || h.Misses != 2 {
		t.Errorf("got %+v", h)
	}
}

func TestHitMissEmpty(t *testing.T) {
	var h HitMiss
	if h.Ratio() != 0 || h.MissRatio() != 0 {
		t.Error("empty counter should report zero ratios")
	}
}

func TestHitMissAdd(t *testing.T) {
	a := HitMiss{Hits: 3, Misses: 1}
	b := HitMiss{Hits: 2, Misses: 4}
	a.Add(b)
	if a.Hits != 5 || a.Misses != 5 {
		t.Errorf("Add gave %+v", a)
	}
}

func TestHitMissString(t *testing.T) {
	h := HitMiss{Hits: 1, Misses: 1}
	if got := h.String(); !strings.Contains(got, "50.00%") {
		t.Errorf("String() = %q", got)
	}
}

func TestMean(t *testing.T) {
	var m Mean
	m.Observe(2)
	m.Observe(4)
	if m.Value() != 3 {
		t.Errorf("Value = %f", m.Value())
	}
	var empty Mean
	if empty.Value() != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Geomean = %f", got)
	}
	if got := Geomean([]float64{2, 0, -3, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("Geomean with skips = %f", got)
	}
	if Geomean(nil) != 0 {
		t.Error("Geomean(nil) should be 0")
	}
}

func TestArithMean(t *testing.T) {
	if got := ArithMean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("ArithMean = %f", got)
	}
	if ArithMean(nil) != 0 {
		t.Error("ArithMean(nil) should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22", "extra-dropped")
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	if strings.Contains(out, "extra-dropped") {
		t.Error("extra cell should be dropped")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.123); got != "12.30%" {
		t.Errorf("Pct = %q", got)
	}
}

// Property: ratio + miss ratio = 1 whenever any access was recorded.
func TestHitMissRatioProperty(t *testing.T) {
	f := func(hits, misses uint16) bool {
		h := HitMiss{Hits: uint64(hits), Misses: uint64(misses)}
		if h.Total() == 0 {
			return h.Ratio() == 0
		}
		return math.Abs(h.Ratio()+h.MissRatio()-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: geomean of a constant slice is the constant.
func TestGeomeanConstantProperty(t *testing.T) {
	f := func(v uint8, n uint8) bool {
		x := float64(v%100) + 1
		cnt := int(n%20) + 1
		xs := make([]float64, cnt)
		for i := range xs {
			xs[i] = x
		}
		return math.Abs(Geomean(xs)-x) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
