package trace

import (
	"fmt"
	"strings"

	"repro/internal/addr"
)

// Analysis summarizes the locality structure of a reference stream — the
// properties that determine its TLB/cache/DRAM behaviour. It is what the
// paper's authors would have extracted from their PIN traces to
// characterize workloads, and what this repository uses to calibrate its
// synthetic generators against Table 2's classes.
type Analysis struct {
	// Records is the number of references analyzed.
	Records uint64
	// Pages4K / Pages2M are the distinct page counts per size.
	Pages4K, Pages2M uint64
	// FootprintBytes approximates the touched footprint.
	FootprintBytes uint64
	// WriteFrac is the store fraction.
	WriteFrac float64
	// MeanGap is the mean non-memory instruction gap.
	MeanGap float64
	// SequentialFrac is the fraction of references exactly one line after
	// the same thread's previous reference (spatial-run density).
	SequentialFrac float64
	// PageReuse is the page-granular reuse-distance histogram: counts of
	// references whose same-page previous access was within 2^k distinct
	// pages (bucket k), plus an overflow/cold bucket.
	PageReuse []uint64
	// Threads is the number of distinct threads.
	Threads int
}

// reuseTracker measures page-granular stack (reuse) distances with an
// exact but simple structure: an access-ordered list of pages. O(n·d) —
// fine for calibration-sized traces.
type reuseTracker struct {
	order []uint64          // most recent first
	pos   map[uint64]int    // page → index in order
	hist  map[uint64]uint64 // distance bucket (log2) → count
	cold  uint64
}

func newReuseTracker() *reuseTracker {
	return &reuseTracker{pos: make(map[uint64]int), hist: make(map[uint64]uint64)}
}

func (r *reuseTracker) touch(page uint64) {
	if idx, ok := r.pos[page]; ok {
		// Distance = number of distinct pages touched since.
		d := uint64(idx)
		b := uint64(0)
		for 1<<b < d+1 {
			b++
		}
		r.hist[b]++
		// Move to front.
		copy(r.order[1:idx+1], r.order[:idx])
		r.order[0] = page
		for i := 0; i <= idx; i++ {
			r.pos[r.order[i]] = i
		}
		return
	}
	r.cold++
	r.order = append([]uint64{page}, r.order...)
	for i, p := range r.order {
		r.pos[p] = i
	}
}

// Analyze consumes n records from a generator and summarizes them.
func Analyze(g Generator, n int) Analysis {
	a := Analysis{}
	seen4K := make(map[uint64]bool)
	seen2M := make(map[uint64]bool)
	threads := make(map[uint8]bool)
	lastLine := make(map[uint8]uint64)
	reuse := newReuseTracker()
	var writes, seq uint64
	var gaps float64

	const reuseCap = 1 << 14 // bound the exact-stack cost
	for i := 0; i < n; i++ {
		rec := g.Next()
		a.Records++
		threads[rec.Thread] = true
		if rec.Write {
			writes++
		}
		gaps += float64(rec.Gap)
		if rec.Size == addr.Page2M {
			seen2M[rec.VA.VPN(addr.Page2M)] = true
		} else {
			seen4K[rec.VA.VPN(addr.Page4K)] = true
		}
		line := rec.VA.Line()
		if prev, ok := lastLine[rec.Thread]; ok && line == prev+1 {
			seq++
		}
		lastLine[rec.Thread] = line
		if len(reuse.pos) < reuseCap {
			reuse.touch(rec.VA.VPN(addr.Page4K))
		}
	}
	if a.Records == 0 {
		return a
	}
	a.Pages4K = uint64(len(seen4K))
	a.Pages2M = uint64(len(seen2M))
	a.FootprintBytes = a.Pages4K*addr.Bytes4K + a.Pages2M*addr.Bytes2M
	a.WriteFrac = float64(writes) / float64(a.Records)
	a.Threads = len(threads)
	a.MeanGap = gaps / float64(a.Records)
	a.SequentialFrac = float64(seq) / float64(a.Records)

	// Flatten the reuse histogram into ascending buckets.
	maxB := uint64(0)
	for b := range reuse.hist {
		if b > maxB {
			maxB = b
		}
	}
	a.PageReuse = make([]uint64, maxB+2)
	for b, c := range reuse.hist {
		a.PageReuse[b] = c
	}
	a.PageReuse[maxB+1] = reuse.cold
	return a
}

// String renders a compact report.
func (a Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "records         %d (threads %d)\n", a.Records, a.Threads)
	fmt.Fprintf(&b, "footprint       %.1f MB (%d 4K pages, %d 2M pages)\n",
		float64(a.FootprintBytes)/(1<<20), a.Pages4K, a.Pages2M)
	fmt.Fprintf(&b, "writes          %.1f%%\n", 100*a.WriteFrac)
	fmt.Fprintf(&b, "mean gap        %.1f instructions\n", a.MeanGap)
	fmt.Fprintf(&b, "sequential      %.1f%% of references\n", 100*a.SequentialFrac)
	if len(a.PageReuse) > 0 {
		fmt.Fprintf(&b, "page reuse (distinct-pages distance → refs):\n")
		for k, c := range a.PageReuse[:len(a.PageReuse)-1] {
			if c == 0 {
				continue
			}
			fmt.Fprintf(&b, "  ≤ %6d pages: %d\n", 1<<k, c)
		}
		fmt.Fprintf(&b, "  cold          : %d\n", a.PageReuse[len(a.PageReuse)-1])
	}
	return b.String()
}

// HotSetPages returns the smallest number of distinct pages covering the
// given fraction of non-cold reuses — a calibration aid for hot-set sizes.
func (a Analysis) HotSetPages(frac float64) uint64 {
	if len(a.PageReuse) == 0 {
		return 0
	}
	var total uint64
	for _, c := range a.PageReuse[:len(a.PageReuse)-1] {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(frac * float64(total))
	var cum uint64
	buckets := a.PageReuse[:len(a.PageReuse)-1]
	for k, c := range buckets {
		cum += c
		if cum >= target {
			return 1 << uint(k)
		}
	}
	return 1 << uint(len(buckets))
}
