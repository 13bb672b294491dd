package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func testParams() Params {
	return Params{
		Seed:           1,
		FootprintBytes: 64 << 20,
		LargeFrac:      0.5,
		Threads:        4,
		MeanGap:        10,
		WriteFrac:      0.3,
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{VA: 0x1000, Gap: 5, Write: true, Thread: 3, Size: addr.Page4K},
		{VA: 0xdead_beef_0000, Gap: 0, Write: false, Thread: 0, Size: addr.Page2M},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 2 {
		t.Errorf("Count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("NOTATRACE_______")))
	if err == nil {
		t.Error("bad magic accepted")
	}
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic error = %v, want ErrBadMagic", err)
	}
	_, err = NewReader(bytes.NewReader(nil))
	if err == nil {
		t.Error("empty stream accepted")
	}
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("empty stream error = %v, want ErrTruncated", err)
	}
}

// TestReaderSentinelErrors pins the typed-error contract the server's
// status mapping depends on: short header → ErrTruncated, wrong magic →
// ErrBadMagic, torn record → ErrTruncated, clean end → io.EOF.
func TestReaderSentinelErrors(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("POM"))); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v, want ErrTruncated", err)
	}

	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{VA: 0x1000, Gap: 3})
	w.Write(Record{VA: 0x2000, Gap: 4})
	w.Flush()

	// Clean stream: both records, then io.EOF.
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Read(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("clean end: %v, want io.EOF", err)
	}

	// Torn stream: first record whole, second cut mid-struct.
	torn := buf.Bytes()[:buf.Len()-5]
	r, err = NewReader(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatalf("whole record before tear: %v", err)
	}
	if _, err := r.Read(); !errors.Is(err, ErrTruncated) {
		t.Errorf("torn record: %v, want ErrTruncated", err)
	}
}

// Property: records round-trip through the binary format.
func TestRecordRoundtripProperty(t *testing.T) {
	f := func(raw uint64, gap uint32, write bool, thread uint8, large bool) bool {
		size := addr.Page4K
		if large {
			size = addr.Page2M
		}
		rec := Record{VA: addr.VA(raw & (1<<48 - 1)), Gap: gap, Write: write, Thread: thread, Size: size}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		w.Write(rec)
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Read()
		return err == nil && got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{FootprintBytes: 100, Threads: 1},
		{FootprintBytes: 1 << 20, Threads: 0},
		{FootprintBytes: 1 << 20, Threads: 1, LargeFrac: 1.5},
		{FootprintBytes: 1 << 20, Threads: 1, WriteFrac: -1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("params %d should be invalid", i)
		}
	}
	if err := testParams().Validate(); err != nil {
		t.Error(err)
	}
}

func TestLayoutPlacement(t *testing.T) {
	l := newLayout(testParams()) // 32 MB large + 32 MB small
	if l.largeBytes != 32<<20 || l.smallBytes != 32<<20 {
		t.Fatalf("layout = %+v", l)
	}
	va, size := l.place(0)
	if size != addr.Page2M || uint64(va) != l.largeBase {
		t.Errorf("offset 0 = %v %v", va, size)
	}
	va, size = l.place(l.largeBytes)
	if size != addr.Page4K || uint64(va) != l.smallBase {
		t.Errorf("first small offset = %v %v", va, size)
	}
	if l.largeBase%addr.Bytes2M != 0 {
		t.Error("large base not 2MB aligned")
	}
	// Wraps beyond footprint.
	va1, _ := l.place(0)
	va2, _ := l.place(l.footprint())
	if va1 != va2 {
		t.Error("place should wrap at footprint")
	}
}

func TestLayoutAllSmall(t *testing.T) {
	p := testParams()
	p.LargeFrac = 0
	l := newLayout(p)
	if l.largeBytes != 0 {
		t.Errorf("largeBytes = %d", l.largeBytes)
	}
	_, size := l.place(12345)
	if size != addr.Page4K {
		t.Error("all-small layout produced a 2M page")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func() Generator{
		"stream":  func() Generator { return NewStream(testParams()) },
		"uniform": func() Generator { return NewUniform(testParams()) },
		"zipf":    func() Generator { return NewZipf(testParams(), 0.9) },
		"chase":   func() Generator { return NewChase(testParams()) },
		"hotcold": func() Generator { return NewHotCold(testParams(), 0.1, 0.8) },
		"mix": func() Generator {
			return NewMix(NewStream(testParams()), NewUniform(testParams()), 0.7, 42)
		},
	}
	for name, mk := range gens {
		a := Collect(mk(), 1000)
		b := Collect(mk(), 1000)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: record %d differs between identical generators", name, i)
				break
			}
		}
	}
}

func TestGeneratorsRespectLayout(t *testing.T) {
	p := testParams()
	l := newLayout(p)
	gens := []Generator{
		NewStream(p), NewUniform(p), NewZipf(p, 0.9), NewChase(p),
		NewHotCold(p, 0.1, 0.8),
	}
	for _, g := range gens {
		for i := 0; i < 5000; i++ {
			r := g.Next()
			va := uint64(r.VA)
			inLarge := va >= l.largeBase && va < l.largeBase+l.largeBytes
			inSmall := va >= l.smallBase && va < l.smallBase+l.smallBytes
			if !inLarge && !inSmall {
				t.Fatalf("%T: VA %#x outside both regions", g, va)
			}
			if inLarge && r.Size != addr.Page2M {
				t.Fatalf("%T: large-region VA tagged %v", g, r.Size)
			}
			if inSmall && r.Size != addr.Page4K {
				t.Fatalf("%T: small-region VA tagged %v", g, r.Size)
			}
			if int(r.Thread) >= p.Threads {
				t.Fatalf("%T: thread %d out of range", g, r.Thread)
			}
		}
	}
}

func TestStreamIsSequential(t *testing.T) {
	p := testParams()
	p.Threads = 1
	p.LargeFrac = 0
	g := NewStream(p)
	prev := g.Next().VA
	for i := 0; i < 100; i++ {
		cur := g.Next().VA
		if uint64(cur)-uint64(prev) != addr.CacheLineSize {
			t.Fatalf("stream step = %d, want 64", uint64(cur)-uint64(prev))
		}
		prev = cur
	}
}

func TestUniformCoversFootprint(t *testing.T) {
	p := testParams()
	g := NewUniform(p)
	pages := make(map[uint64]bool)
	for i := 0; i < 50_000; i++ {
		pages[g.Next().VA.VPN(addr.Page4K)] = true
	}
	// 64 MB footprint = 16384 4K pages; 50k uniform draws should touch many.
	if len(pages) < 5000 {
		t.Errorf("uniform touched only %d pages", len(pages))
	}
}

func TestZipfIsSkewed(t *testing.T) {
	p := testParams()
	g := NewZipf(p, 1.1)
	counts := make(map[addr.VA]int)
	n := 50_000
	for i := 0; i < n; i++ {
		counts[g.Next().VA.PageBase(addr.Page4K)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(n) < 0.01 {
		t.Errorf("zipf hottest page got only %d/%d refs — not skewed", max, n)
	}
	if len(counts) < 100 {
		t.Errorf("zipf touched only %d pages — no tail", len(counts))
	}
}

func TestChaseVisitsManyLines(t *testing.T) {
	p := testParams()
	p.Threads = 1
	g := NewChase(p)
	lines := make(map[uint64]bool)
	for i := 0; i < 20_000; i++ {
		lines[g.Next().VA.Line()] = true
	}
	// Full-period permutation: 20k steps touch ~20k distinct lines.
	if len(lines) < 19_000 {
		t.Errorf("chase revisited too early: %d distinct lines", len(lines))
	}
}

func TestHotColdConcentrates(t *testing.T) {
	p := testParams()
	g := NewHotCold(p, 0.05, 0.9)
	l := newLayout(p)
	hot := 0
	n := 20_000
	for i := 0; i < n; i++ {
		r := g.Next()
		off := uint64(r.VA) - l.largeBase
		if uint64(r.VA) >= l.smallBase {
			off = l.largeBytes + uint64(r.VA) - l.smallBase
		}
		if off >= g.hotStart && off < g.hotStart+g.hotSize {
			hot++
		}
	}
	if float64(hot)/float64(n) < 0.8 {
		t.Errorf("hot fraction = %f, want ≈ 0.9", float64(hot)/float64(n))
	}
}

func TestHotColdHotRegionInSmallPages(t *testing.T) {
	p := testParams() // 50% large pages
	g := NewHotCold(p, 0.05, 1.0)
	for i := 0; i < 1000; i++ {
		if r := g.Next(); r.Size != addr.Page4K {
			t.Fatalf("hot reference landed on a %v page", r.Size)
		}
	}
}

func TestRunsAreSequential(t *testing.T) {
	p := testParams()
	p.Threads = 1
	p.RunLines = 16
	g := NewUniform(p)
	var jumps, steps int
	prev := g.Next().VA
	for i := 0; i < 10_000; i++ {
		cur := g.Next().VA
		if uint64(cur)-uint64(prev) == addr.CacheLineSize {
			steps++
		} else {
			jumps++
		}
		prev = cur
	}
	// Mean run length 16 → roughly 1 jump per 16 steps.
	ratio := float64(steps) / float64(jumps+1)
	if ratio < 8 || ratio > 32 {
		t.Errorf("steps/jumps = %.1f, want ≈ 16", ratio)
	}
}

func TestMixDrawsFromBoth(t *testing.T) {
	p := testParams()
	p.LargeFrac = 0
	a := NewStream(p)
	pb := p
	pb.BaseVA = 0x70_0000_0000
	b := NewUniform(pb)
	m := NewMix(a, b, 0.5, 7)
	var fromA, fromB int
	for i := 0; i < 1000; i++ {
		r := m.Next()
		if uint64(r.VA) >= 0x70_0000_0000 {
			fromB++
		} else {
			fromA++
		}
	}
	if fromA < 300 || fromB < 300 {
		t.Errorf("mix imbalance: %d vs %d", fromA, fromB)
	}
}

func TestGapDistribution(t *testing.T) {
	p := testParams()
	p.MeanGap = 20
	g := NewUniform(p)
	var sum float64
	n := 20_000
	for i := 0; i < n; i++ {
		sum += float64(g.Next().Gap)
	}
	mean := sum / float64(n)
	if mean < 15 || mean > 25 {
		t.Errorf("gap mean = %f, want ≈ 20", mean)
	}
}

func TestWriteFraction(t *testing.T) {
	p := testParams()
	p.WriteFrac = 0.25
	g := NewUniform(p)
	writes := 0
	n := 20_000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / float64(n)
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("write fraction = %f, want ≈ 0.25", frac)
	}
}

func TestThreadRotation(t *testing.T) {
	p := testParams()
	g := NewUniform(p)
	seen := make(map[uint8]int)
	for i := 0; i < 400; i++ {
		seen[g.Next().Thread]++
	}
	if len(seen) != p.Threads {
		t.Errorf("saw %d threads, want %d", len(seen), p.Threads)
	}
	for th, c := range seen {
		if c != 100 {
			t.Errorf("thread %d got %d records, want 100", th, c)
		}
	}
}

func TestGeneratorPanicsOnBadParams(t *testing.T) {
	for name, fn := range map[string]func(){
		"badparams": func() { NewUniform(Params{}) },
		"zipfskew":  func() { NewZipf(testParams(), 0) },
		"hotcold":   func() { NewHotCold(testParams(), 0, 0.5) },
		"mixprob":   func() { NewMix(NewUniform(testParams()), NewUniform(testParams()), 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWriteAll(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := WriteAll(w, NewUniform(testParams()), 100); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(&buf)
	n := 0
	for {
		if _, err := r.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 100 {
		t.Errorf("read %d records, want 100", n)
	}
}
