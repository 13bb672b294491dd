package trace

import (
	"testing"

	"repro/internal/addr"
)

// TestZipfUniformTailBeyondCDFCap is the regression test for the capped
// CDF: with an 8 GiB footprint (2M pages, double the 1M-rank cap) the
// old generator could never emit a page past 4 GiB, and its hot-page
// modulo used the uncapped page count while the CDF used the capped one.
// Now the universe is shared and the tail really is uniform.
func TestZipfUniformTailBeyondCDFCap(t *testing.T) {
	p := Params{Seed: 3, FootprintBytes: 8 << 30, Threads: 1}
	z := NewZipf(p, 0.6) // low skew → fat tail, so the tail branch is hot
	wantPages := p.FootprintBytes / addr.Bytes4K
	if z.pages != wantPages {
		t.Fatalf("page universe = %d, want the full footprint's %d", z.pages, wantPages)
	}
	if len(z.cdf) != maxZipfCDF {
		t.Fatalf("CDF covers %d ranks, want the %d cap", len(z.cdf), maxZipfCDF)
	}
	// A tail exists exactly when the CDF stops short of 1: the rest of
	// the mass is the tail's, and Next draws it by u >= cdf[n-1].
	if top := z.cdf[len(z.cdf)-1]; top >= 1 {
		t.Fatalf("cdf tops out at %v, want below 1 for a footprint past the cap", top)
	}

	const n = 100_000
	var tail int
	for i := 0; i < n; i++ {
		rec := z.Next()
		if uint64(rec.VA) < z.l.smallBase {
			t.Fatalf("VA %#x below the 4K region base %#x", rec.VA, z.l.smallBase)
		}
		page := (uint64(rec.VA) - z.l.smallBase) / addr.Bytes4K
		if page >= wantPages {
			t.Fatalf("page %d outside the footprint (%d pages)", page, wantPages)
		}
		if page >= maxZipfCDF {
			tail++
		}
	}
	if tail == 0 {
		t.Fatal("no references beyond the CDF cap: the uniform tail is dead")
	}
	// With s=0.6 the integral puts roughly a quarter of the mass in the
	// tail; accept a generous band so float details don't matter.
	frac := float64(tail) / n
	if frac < 0.05 || frac > 0.60 {
		t.Errorf("tail fraction = %.3f, want within [0.05, 0.60]", frac)
	}
}

// TestZipfSmallFootprintHasNoTail pins the other side: at or below the
// cap the CDF covers every page and its last entry is exactly 1, so the
// tail branch is unreachable.
func TestZipfSmallFootprintHasNoTail(t *testing.T) {
	p := Params{Seed: 5, FootprintBytes: 64 << 20, Threads: 2, MeanGap: 3, WriteFrac: 0.2}
	z := NewZipf(p, 0.9)
	if n := uint64(len(z.cdf)); n != z.pages {
		t.Fatalf("CDF covers %d ranks, want all %d pages", n, z.pages)
	}
	if got := z.cdf[len(z.cdf)-1]; got != 1.0 {
		t.Fatalf("cdf tops out at %v, want exactly 1", got)
	}
}
