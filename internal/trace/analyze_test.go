package trace

import (
	"strings"
	"testing"

	"repro/internal/addr"
)

// largeFrac is the fraction of g's first n records that reference 2 MB
// pages.
func largeFrac(g Generator, n int) float64 {
	large := 0
	for _, rec := range Collect(g, n) {
		if rec.Size == addr.Page2M {
			large++
		}
	}
	return float64(large) / float64(n)
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(NewUniform(testParams()), 0)
	if a.Records != 0 || a.String() == "" {
		t.Error("empty analysis malformed")
	}
}

func TestAnalyzeStream(t *testing.T) {
	p := testParams()
	p.Threads = 1
	p.LargeFrac = 0
	a := Analyze(NewStream(p), 20_000)
	if a.Records != 20_000 || a.Threads != 1 {
		t.Errorf("records=%d threads=%d", a.Records, a.Threads)
	}
	if a.SequentialFrac < 0.99 {
		t.Errorf("stream sequential fraction = %f", a.SequentialFrac)
	}
	if a.Pages2M != 0 {
		t.Errorf("no 2M pages expected, got %d", a.Pages2M)
	}
	// 20k sequential lines = 20k×64B = 1.25 MB ≈ 320 pages.
	if a.Pages4K < 300 || a.Pages4K > 340 {
		t.Errorf("Pages4K = %d", a.Pages4K)
	}
}

func TestAnalyzeUniform(t *testing.T) {
	p := testParams() // 50% large pages
	a := Analyze(NewUniform(p), 20_000)
	if a.SequentialFrac > 0.05 {
		t.Errorf("uniform sequential fraction = %f", a.SequentialFrac)
	}
	if f := largeFrac(NewUniform(p), 20_000); f < 0.3 || f > 0.7 {
		t.Errorf("large access fraction = %f", f)
	}
	if a.WriteFrac < 0.2 || a.WriteFrac > 0.4 {
		t.Errorf("write fraction = %f (param 0.3)", a.WriteFrac)
	}
	if a.MeanGap < 5 || a.MeanGap > 15 {
		t.Errorf("mean gap = %f (param 10)", a.MeanGap)
	}
}

func TestAnalyzeHotColdReuse(t *testing.T) {
	p := testParams()
	p.LargeFrac = 0
	p.FootprintBytes = 256 << 20
	g := NewHotCold(p, 0.001, 0.95) // tiny, very hot set
	a := Analyze(g, 30_000)
	hot := a.HotSetPages(0.9)
	// Hot set is 0.1% of 256MB = 64 pages; the 90% reuse mass should sit
	// within a small page count (power-of-two bucketed).
	if hot > 1024 {
		t.Errorf("HotSetPages(0.9) = %d, want small", hot)
	}
	if !strings.Contains(a.String(), "page reuse") {
		t.Error("report missing reuse section")
	}
}

func TestHotSetPagesDegenerate(t *testing.T) {
	var a Analysis
	if a.HotSetPages(0.9) != 0 {
		t.Error("empty analysis hot set should be 0")
	}
	a.PageReuse = []uint64{0, 0} // no reuses, only cold bucket
	if a.HotSetPages(0.9) != 0 {
		t.Error("reuse-free analysis hot set should be 0")
	}
}

func TestReuseTrackerExact(t *testing.T) {
	r := newReuseTracker()
	r.touch(1) // cold
	r.touch(2) // cold
	r.touch(1) // distance 1 (one distinct page since) → bucket ≤2
	r.touch(3) // cold
	r.touch(2) // distance 2 → bucket ≤2 or ≤4
	if r.cold != 3 {
		t.Errorf("cold = %d, want 3", r.cold)
	}
	var reuses uint64
	for _, c := range r.hist {
		reuses += c
	}
	if reuses != 2 {
		t.Errorf("reuses = %d, want 2", reuses)
	}
}

func TestAnalyzeMatchesGeneratorFootprint(t *testing.T) {
	// The analyzer should roughly recover the configured footprint for a
	// full-coverage uniform stream.
	p := Params{
		Seed: 1, FootprintBytes: 8 << 20, LargeFrac: 0,
		Threads: 2, MeanGap: 0, WriteFrac: 0,
	}
	a := Analyze(NewUniform(p), 100_000)
	pages := p.FootprintBytes / addr.Bytes4K
	if a.Pages4K < pages*9/10 {
		t.Errorf("recovered %d of %d pages", a.Pages4K, pages)
	}
}
