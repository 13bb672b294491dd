package trace

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/addr"
)

// rng is a small deterministic splitmix64 generator, so traces are
// reproducible across platforms and Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed ^ 0x9E3779B97F4A7C15} }

func (r *rng) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

func (r *rng) Intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.Uint64() % n
}

// Params configures a synthetic workload stream.
type Params struct {
	// Seed makes the stream deterministic.
	Seed uint64
	// FootprintBytes is the total data footprint.
	FootprintBytes uint64
	// LargeFrac is the fraction of the footprint backed by 2 MB pages
	// (Table 2's "Frac Large Pages").
	LargeFrac float64
	// Threads is the number of issuing threads (8 for the multithreaded
	// workloads; SPECrate-style copies also present as threads).
	Threads int
	// MeanGap is the mean number of non-memory instructions between
	// memory references on a thread.
	MeanGap uint32
	// WriteFrac is the fraction of references that are stores.
	WriteFrac float64
	// BaseVA is the bottom of the synthetic heap.
	BaseVA uint64
	// RunLines adds spatial locality: after a pattern picks a target,
	// the generator walks ~RunLines sequential cache lines from it before
	// picking again (real codes sweep regions; this is what gives TLB
	// miss streams their spatial correlation and the POM-TLB its high
	// DRAM row-buffer hit rate). 0 disables runs (pure point process).
	RunLines int
}

// Regions reports the virtual-address regions the params' layout
// produces: [largeBase, largeBase+largeBytes) is backed by 2 MB pages,
// [smallBase, smallBase+smallBytes) by 4 KB pages. Scenario layers use
// it to aim shootdowns at addresses a generator can actually emit. The
// params must be valid.
func (p Params) Regions() (largeBase, largeBytes, smallBase, smallBytes uint64) {
	l := newLayout(p)
	return l.largeBase, l.largeBytes, l.smallBase, l.smallBytes
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.FootprintBytes < addr.Bytes4K:
		return fmt.Errorf("trace: footprint %d too small", p.FootprintBytes)
	case p.Threads <= 0 || p.Threads > 256:
		return fmt.Errorf("trace: threads %d out of range", p.Threads)
	case p.LargeFrac < 0 || p.LargeFrac > 1:
		return fmt.Errorf("trace: LargeFrac %f out of range", p.LargeFrac)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("trace: WriteFrac %f out of range", p.WriteFrac)
	}
	return nil
}

// layout places the large-page region below the small-page region, the way
// THP promotes big aligned extents, and translates footprint offsets to
// virtual addresses and page sizes.
type layout struct {
	largeBytes uint64
	smallBytes uint64
	largeBase  uint64
	smallBase  uint64
}

func newLayout(p Params) layout {
	large := uint64(float64(p.FootprintBytes)*p.LargeFrac) &^ (addr.Bytes2M - 1)
	small := (p.FootprintBytes - large + addr.Bytes4K - 1) &^ (addr.Bytes4K - 1)
	base := p.BaseVA
	if base == 0 {
		base = 0x10_0000_0000
	}
	base = (base + addr.Bytes2M - 1) &^ (addr.Bytes2M - 1)
	return layout{
		largeBytes: large,
		smallBytes: small,
		largeBase:  base,
		smallBase:  base + large + addr.Bytes2M, // gap keeps regions apart
	}
}

// Footprint returns the usable footprint in bytes.
func (l layout) footprint() uint64 { return l.largeBytes + l.smallBytes }

// place converts a byte offset into (VA, page size).
func (l layout) place(off uint64) (addr.VA, addr.PageSize) {
	off %= l.footprint()
	if off < l.largeBytes {
		return addr.VA(l.largeBase + off), addr.Page2M
	}
	return addr.VA(l.smallBase + (off - l.largeBytes)), addr.Page4K
}

// base carries the state shared by all pattern generators: layout, RNG,
// round-robin thread rotation, gap/write sampling and per-thread
// sequential-run state.
type base struct {
	p      Params
	l      layout
	r      *rng
	thread int
	// Per-thread run state (only used when RunLines > 0).
	runLeft []int
	runPos  []uint64
}

func newBase(p Params) base {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return base{
		p: p, l: newLayout(p), r: newRNG(p.Seed),
		runLeft: make([]int, p.Threads),
		runPos:  make([]uint64, p.Threads),
	}
}

// emitWithRuns emits either the next line of the current thread's
// sequential run or a fresh pattern target from pick.
func (b *base) emitWithRuns(pick func() uint64) Record {
	t := b.thread
	if b.p.RunLines > 0 && b.runLeft[t] > 0 {
		b.runLeft[t]--
		b.runPos[t] += addr.CacheLineSize
		return b.emit(b.runPos[t])
	}
	off := pick()
	if b.p.RunLines > 0 {
		b.runLeft[t] = int(b.r.Intn(uint64(2*b.p.RunLines) + 1))
		b.runPos[t] = off
	}
	return b.emit(off)
}

// emit assembles a record for a footprint offset, rotating threads.
func (b *base) emit(off uint64) Record {
	va, size := b.l.place(off &^ 7) // 8-byte aligned accesses
	gap := uint32(0)
	if b.p.MeanGap > 0 {
		// Geometric-ish gap with the requested mean.
		gap = uint32(b.r.Intn(uint64(2*b.p.MeanGap) + 1))
	}
	rec := Record{
		VA:     va,
		Gap:    gap,
		Write:  b.r.Float64() < b.p.WriteFrac,
		Thread: uint8(b.thread),
		Size:   size,
	}
	b.thread = (b.thread + 1) % b.p.Threads
	return rec
}

// Stream generates sequential per-thread streams through disjoint slices
// of the footprint — the streaming behaviour of lbm/libquantum/
// streamcluster that yields near-perfect spatial locality.
type Stream struct {
	base
	cursors []uint64
}

// NewStream builds a streaming generator.
func NewStream(p Params) *Stream {
	s := &Stream{base: newBase(p), cursors: make([]uint64, p.Threads)}
	slice := s.l.footprint() / uint64(p.Threads)
	for t := range s.cursors {
		s.cursors[t] = uint64(t) * slice
	}
	return s
}

// Next implements Generator.
func (s *Stream) Next() Record {
	t := s.thread
	off := s.cursors[t]
	s.cursors[t] += addr.CacheLineSize
	return s.emit(off)
}

// Fill implements Generator.
func (s *Stream) Fill(buf []Record) int {
	for i := range buf {
		buf[i] = s.Next()
	}
	return len(buf)
}

// Uniform generates uniformly random references over the footprint — the
// gups pattern with essentially no locality at any level.
type Uniform struct{ base }

// NewUniform builds a uniform-random generator.
func NewUniform(p Params) *Uniform {
	return &Uniform{base: newBase(p)}
}

// Next implements Generator.
func (u *Uniform) Next() Record {
	return u.emitWithRuns(func() uint64 { return u.r.Intn(u.l.footprint()) })
}

// Fill implements Generator.
func (u *Uniform) Fill(buf []Record) int {
	for i := range buf {
		buf[i] = u.Next()
	}
	return len(buf)
}

// Zipf generates page-granular references with a power-law popularity
// distribution — the graph-workload pattern (pagerank, connected
// components, graph500) where a few hub pages are hot and a long tail is
// touched rarely.
type Zipf struct {
	base
	s     float64
	cdf   []float64
	pages uint64 // full page universe; cdf covers min(pages, maxZipfCDF)
}

// maxZipfCDF caps the explicit CDF at 1M ranks (4 GiB of 4 KB pages);
// footprints beyond it keep their popularity mass in an analytic uniform
// tail rather than an ever-larger table.
const maxZipfCDF = 1 << 20

// NewZipf builds a Zipf generator with skew s (s > 0; ~0.9 for graphs).
func NewZipf(p Params, s float64) *Zipf {
	if s <= 0 {
		panic("trace: zipf skew must be positive")
	}
	z := &Zipf{base: newBase(p), s: s}
	z.build()
	return z
}

func (z *Zipf) build() {
	z.pages = z.l.footprint() / addr.Bytes4K
	n := z.pages
	if n > maxZipfCDF {
		n = maxZipfCDF
	}
	z.cdf = make([]float64, n)
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), z.s)
		z.cdf[i] = sum
	}
	// Pages past the CDF cap keep their Zipf popularity mass — the sum
	// over the tail ranks, approximated by the integral of x^-s — and a
	// draw landing there spreads uniformly over the tail pages. Without
	// this the cap silently shrank the page universe: no reference could
	// ever land beyond 4 GiB no matter the footprint.
	tail := 0.0
	if z.pages > n {
		tail = zipfTailMass(float64(n), float64(z.pages), z.s)
	}
	total := sum + tail
	for i := range z.cdf {
		z.cdf[i] /= total
	}
}

// zipfTailMass approximates Σ_{i=lo+1..hi} i^-s by ∫_lo^hi x^-s dx.
func zipfTailMass(lo, hi, s float64) float64 {
	if s == 1 {
		return math.Log(hi / lo)
	}
	return (math.Pow(hi, 1-s) - math.Pow(lo, 1-s)) / (1 - s)
}

// Next implements Generator.
func (z *Zipf) Next() Record {
	return z.emitWithRuns(func() uint64 {
		var rank uint64
		u := z.r.Float64()
		if n := uint64(len(z.cdf)); u >= z.cdf[n-1] {
			// Uniform tail: every page past the CDF cap equally likely.
			rank = n + z.r.Intn(z.pages-n)
		} else {
			rank = uint64(sort.SearchFloat64s(z.cdf, u))
		}
		// Rank maps directly to page order: graph layouts store hubs
		// contiguously (degree-sorted), so the hot pages are neighbours —
		// which is what gives their POM-TLB set lines reuse. Hubs start
		// at the 4 KB region so the hot set stresses the TLBs. The modulo
		// wraps over the same z.pages universe the CDF was built against.
		page := (z.l.largeBytes/addr.Bytes4K + rank) % z.pages
		return page*addr.Bytes4K + z.r.Intn(addr.Bytes4K)
	})
}

// Fill implements Generator.
func (z *Zipf) Fill(buf []Record) int {
	for i := range buf {
		buf[i] = z.Next()
	}
	return len(buf)
}

// Chase generates a full-period pseudo-random pointer chase over cache
// lines (an LCG permutation walk): every line is visited once per period
// with no spatial locality — the mcf/astar pattern of dependent loads.
type Chase struct {
	base
	cursors []uint64
	lines   uint64 // power of two
	a, c    uint64
}

// NewChase builds a pointer-chase generator.
func NewChase(p Params) *Chase {
	g := &Chase{base: newBase(p)}
	g.init()
	return g
}

func (g *Chase) init() {
	lines := g.l.footprint() / addr.CacheLineSize
	// Round down to a power of two for a full-period LCG (m = 2^k,
	// a ≡ 5 mod 8, c odd).
	for lines&(lines-1) != 0 {
		lines &= lines - 1
	}
	g.lines = lines
	g.a = 6364136223846793005 // ≡ 5 (mod 8)
	g.c = 1442695040888963407 // odd
	g.cursors = make([]uint64, g.p.Threads)
	for t := range g.cursors {
		g.cursors[t] = uint64(t) * (lines / uint64(g.p.Threads))
	}
}

// Next implements Generator.
func (g *Chase) Next() Record {
	t := g.thread
	cur := g.cursors[t]
	g.cursors[t] = (cur*g.a + g.c) & (g.lines - 1)
	return g.emit(cur * addr.CacheLineSize)
}

// Fill implements Generator.
func (g *Chase) Fill(buf []Record) int {
	for i := range buf {
		buf[i] = g.Next()
	}
	return len(buf)
}

// HotCold generates a working-set mixture: with probability pHot the
// reference lands in a hot region of hotFrac × footprint, otherwise
// anywhere — the gcc/zeusmp/soplex class of workloads whose hot set
// overflows the SRAM TLBs while the cold tail overflows everything.
//
// The hot region is deliberately placed at the start of the 4 KB-page
// region: it is the part of the address space whose translations stress
// the TLBs (a hot set of a few 2 MB pages would live in the 32-entry L1
// TLB forever and produce no misses at all).
type HotCold struct {
	base
	pHot     float64
	hotStart uint64
	hotSize  uint64
}

// NewHotCold builds a hot/cold mixture generator. hotFrac is the hot
// region's share of the footprint.
func NewHotCold(p Params, hotFrac, pHot float64) *HotCold {
	if hotFrac <= 0 || hotFrac > 1 || pHot < 0 || pHot > 1 {
		panic("trace: HotCold fractions out of range")
	}
	g := &HotCold{base: newBase(p), pHot: pHot}
	g.place(hotFrac)
	return g
}

func (g *HotCold) place(hotFrac float64) {
	g.hotSize = uint64(float64(g.l.footprint()) * hotFrac)
	if g.hotSize < addr.Bytes4K {
		g.hotSize = addr.Bytes4K
	}
	// Prefer the small-page region; fall back to offset 0 when the
	// footprint is (nearly) all large pages.
	g.hotStart = g.l.largeBytes
	if g.hotStart+g.hotSize > g.l.footprint() {
		g.hotStart = 0
	}
}

// Next implements Generator.
func (g *HotCold) Next() Record {
	return g.emitWithRuns(func() uint64 {
		if g.r.Float64() < g.pHot {
			return g.hotStart + g.r.Intn(g.hotSize)
		}
		return g.r.Intn(g.l.footprint())
	})
}

// Fill implements Generator.
func (g *HotCold) Fill(buf []Record) int {
	for i := range buf {
		buf[i] = g.Next()
	}
	return len(buf)
}

// Mix interleaves two generators with a fixed probability — e.g. a
// streaming phase with occasional random lookups (GemsFDTD, canneal).
type Mix struct {
	A, B Generator
	PA   float64
	rnd  *rng
}

// NewMix builds a probabilistic interleave: pA chance of drawing from a.
func NewMix(a, b Generator, pA float64, seed uint64) *Mix {
	if pA < 0 || pA > 1 {
		panic("trace: mix probability out of range")
	}
	return &Mix{A: a, B: b, PA: pA, rnd: newRNG(seed)}
}

// Next implements Generator.
func (m *Mix) Next() Record {
	if m.rnd.Float64() < m.PA {
		return m.A.Next()
	}
	return m.B.Next()
}

// Fill implements Generator.
func (m *Mix) Fill(buf []Record) int {
	for i := range buf {
		buf[i] = m.Next()
	}
	return len(buf)
}
