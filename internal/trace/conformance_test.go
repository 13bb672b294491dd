package trace_test

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/consolidation"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// confParams is a representative mid-sized configuration: several
// threads, mixed page sizes, gaps, writes and spatial runs so every code
// path in base is exercised.
func confParams(seed uint64) trace.Params {
	return trace.Params{
		Seed:           seed,
		FootprintBytes: 6 << 20,
		LargeFrac:      0.25,
		Threads:        3,
		MeanGap:        5,
		WriteFrac:      0.3,
		RunLines:       8,
	}
}

// consolSmoke builds the consol-smoke scenario's composite generator.
func consolSmoke(seed uint64, phases int) trace.Generator {
	preset, ok := workloads.ConsolidationByName("consol-smoke")
	if !ok {
		panic("consol-smoke preset missing")
	}
	scn, err := consolidation.New(consolidation.Config{Preset: preset, Cores: 2, Seed: seed, TotalRecords: 20_000, Phases: phases})
	if err != nil {
		panic(err)
	}
	return scn.Gen
}

// generators lists one replayable construction of every generator: each
// call must return a fresh generator whose stream the seed fully
// determines.
var generators = []struct {
	name string
	new  func(seed uint64) trace.Generator
}{
	{"stream", func(seed uint64) trace.Generator { return trace.NewStream(confParams(seed)) }},
	{"uniform", func(seed uint64) trace.Generator { return trace.NewUniform(confParams(seed)) }},
	{"zipf", func(seed uint64) trace.Generator { return trace.NewZipf(confParams(seed), 0.9) }},
	{"chase", func(seed uint64) trace.Generator { return trace.NewChase(confParams(seed)) }},
	{"hotcold", func(seed uint64) trace.Generator { return trace.NewHotCold(confParams(seed), 0.2, 0.8) }},
	{"mix", func(seed uint64) trace.Generator {
		return trace.NewMix(trace.NewStream(confParams(seed)), trace.NewZipf(confParams(seed^0xA5A5), 1.05), 0.7, seed)
	}},
	{"phased", func(seed uint64) trace.Generator {
		small := confParams(seed ^ 0x5A5A)
		small.FootprintBytes = 2 << 20
		return trace.NewPhased(
			trace.Phase{Records: 1000, Gen: trace.NewUniform(confParams(seed))},
			trace.Phase{Records: 500, Gen: trace.NewUniform(small)},
		)
	}},
	{"replay", func(seed uint64) trace.Generator {
		// 300 records, so every batch size meets the wrap mid-batch.
		return trace.NewReplay(trace.Collect(trace.NewUniform(confParams(seed)), 300))
	}},
	{"consolidation", func(seed uint64) trace.Generator { return consolSmoke(seed, 0) }},
	{"consolidation-phased", func(seed uint64) trace.Generator { return consolSmoke(seed, 3) }},
}

func firstDiff(a, b []trace.Record) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// nextStream draws n records one Next call at a time: the reference
// stream Fill must reproduce (Collect itself drains by Fill).
func nextStream(g trace.Generator, n int) []trace.Record {
	out := make([]trace.Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// fillStream draws n records by Fill calls of at most batch records.
func fillStream(t *testing.T, g trace.Generator, n, batch int) []trace.Record {
	out := make([]trace.Record, n)
	for i := 0; i < n; {
		k := g.Fill(out[i:min(i+batch, n)])
		if k == 0 {
			t.Fatalf("Fill of %d records returned none at record %d", min(batch, n-i), i)
		}
		i += k
	}
	return out
}

// TestGeneratorConformance is the table-test every generator must pass:
// canonical addresses (every VA below 2^48, so the trace writer accepts
// the stream), seed determinism (two instances with the same seed emit
// identical streams), seed sensitivity, and batch transparency (Fill in
// batches of any size emits Next's stream). A new generator gets this
// coverage by adding a row to generators.
func TestGeneratorConformance(t *testing.T) {
	for _, f := range generators {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			const n = 5000
			first := trace.Collect(f.new(42), n)
			for i, r := range first {
				if uint64(r.VA)>>addr.VABits != 0 {
					t.Fatalf("record %d: VA %#x is not below 2^48", i, uint64(r.VA))
				}
			}

			if i := firstDiff(first, trace.Collect(f.new(42), n)); i >= 0 {
				t.Fatalf("two instances with seed 42 diverge at record %d", i)
			}

			if firstDiff(first, trace.Collect(f.new(43), n)) < 0 {
				t.Error("seed 43 replays seed 42's stream: seed has no effect")
			}

			want := nextStream(f.new(42), n)
			for _, batch := range []int{1, 7, 256} {
				if i := firstDiff(want, fillStream(t, f.new(42), n, batch)); i >= 0 {
					t.Errorf("Fill in batches of %d diverges from Next at record %d", batch, i)
				}
			}
		})
	}
}
