package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/oracle"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestSelfCheckAllSchemesClean is the acceptance matrix: three workloads
// across the 2D-walk baseline, POM-TLB and TSB schemes, each run under
// full differential verification — every TLB/cache/DRAM/POM decision
// diffed against its reference model, structural invariants swept
// periodically, the walker cross-checked against the logical translation
// path, and the Result's conservation identities verified. Any
// divergence or violation fails.
func TestSelfCheckAllSchemesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full verification matrix is slow")
	}
	for _, wl := range []string{"gups", "mcf", "graph500"} {
		for _, mode := range []Mode{Baseline, POMTLB, TSB} {
			t.Run(wl+"/"+mode.String(), func(t *testing.T) {
				p, ok := workloads.ByName(wl)
				if !ok {
					t.Fatalf("unknown workload %q", wl)
				}
				cfg := smallConfig(mode)
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sc := sys.EnableSelfCheck()
				res, err := sys.Run(context.Background(), p.Generator(cfg.Cores, cfg.Seed), p.Name)
				if err != nil {
					t.Fatal(err)
				}
				if err := sc.Err(); err != nil {
					t.Errorf("%s", sc.Report())
					t.Fatal(err)
				}
				if sc.Harness().Decisions() == 0 {
					t.Fatal("self-check ran but checked nothing")
				}
				if err := res.CheckAccounting(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// recordHook wraps a generator and hands every record, numbered from 1,
// through at on its way to the simulator.
type recordHook struct {
	trace.Generator
	n  uint64
	at func(n uint64, rec trace.Record) trace.Record
}

func (g *recordHook) Next() trace.Record {
	g.n++
	return g.at(g.n, g.Generator.Next())
}

// Fill passes every record through Next, so the hook sees the batches
// the scheduler pulls too.
func (g *recordHook) Fill(buf []trace.Record) int {
	for i := range buf {
		buf[i] = g.Next()
	}
	return len(buf)
}

// TestSelfCheckCatchesInjectedCorruption wires a fault through the
// differential harness: a record hook fires mid-run and mutates
// production POM-TLB state directly — bypassing the shadow hooks,
// exactly like memory corruption or a state-update bug would — and the
// oracle must report the drift as a divergence. This is the negative
// test proving the watchdog itself works.
func TestSelfCheckCatchesInjectedCorruption(t *testing.T) {
	cfg := smallConfig(POMTLB)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := sys.EnableSelfCheck()
	// Replace the small partition's reference with one this test holds,
	// so the corruption can detach it and put it back. Nothing has run
	// yet, so the new reference starts from the same empty state.
	ref := oracle.NewRefPOM(sc.Harness(), sys.pom.Small)
	corrupted := 0
	// At the 120,000th trace record (inside warmup, once the POM-TLB is
	// well-populated), flip the PFNs of several resident translations
	// behind the shadow's back — the reference keeps the old PFNs, so the
	// next search hit on any corrupted page must diverge.
	corrupt := func() {
		part := sys.pom.Small
		part.SetShadow(nil)
		defer part.SetShadow(ref)
		for vpn := uint64(0); vpn < 1<<16 && corrupted < 8; vpn += 4 {
			for _, e := range part.AppendSet(nil, addr.VA(vpn<<12), 1) {
				if e.Valid {
					e.PFN ^= 0xFFF
					part.Insert(e) // refresh path: rewrites the PFN in place
					corrupted++
					break
				}
			}
		}
	}
	g := &recordHook{Generator: trace.NewUniform(gupsParams(cfg.Cores)), at: func(n uint64, rec trace.Record) trace.Record {
		if n == 120_000 {
			corrupt()
		}
		return rec
	}}
	if _, err := sys.Run(context.Background(), g, "corrupted"); err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("fault callback found no resident entries to corrupt")
	}
	if sc.Harness().Divergences() == 0 {
		t.Fatal("oracle did not report injected POM-TLB corruption as a divergence")
	}
}

// TestSelfCheckRecordCorruptionNoFalsePositives is the complement: a
// record hook mutates trace records *before* they reach the simulator,
// so production and reference models see the same (corrupted) stream —
// the oracle must stay silent. Record corruption changes results, not
// model agreement.
func TestSelfCheckRecordCorruptionNoFalsePositives(t *testing.T) {
	cfg := smallConfig(POMTLB)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := sys.EnableSelfCheck()
	corrupted := 0
	g := &recordHook{Generator: trace.NewUniform(gupsParams(cfg.Cores)), at: func(n uint64, rec trace.Record) trace.Record {
		if n == 10_000 || n == 50_000 || n == 170_000 {
			// Move the page within the canonical 48-bit range and flip
			// the access kind.
			rec.VA ^= addr.VA(n * 0x9E3779B97F4A7C15 & 0x0000_FFFF_FFFF_F000)
			rec.Write = !rec.Write
			corrupted++
		}
		return rec
	}}
	if _, err := sys.Run(context.Background(), g, "record-corrupt"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("record corruption must not diverge the oracle: %v", err)
	}
	if corrupted == 0 {
		t.Fatal("corruption schedule never fired")
	}
}

// TestSameSeedIdenticalResults is the determinism metamorphic property
// at the core level: two systems built from the same Config and fed the
// same seeded generator must produce deeply-equal Results.
func TestSameSeedIdenticalResults(t *testing.T) {
	run := func() Result {
		sys, err := NewSystem(smallConfig(POMTLB))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(context.Background(), trace.NewUniform(gupsParams(2)), "det")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds produced different results:\n%+v\nvs\n%+v", a, b)
	}
}

// TestBypassOffProbesOnlyGrow is the bypass metamorphic property: with
// the bypass predictor disabled every POM-TLB set lookup probes the L2
// data cache, so the probe count can only grow (and the resolution mix
// shifts toward the caches, never away).
func TestBypassOffProbesOnlyGrow(t *testing.T) {
	run := func(disable bool) Result {
		cfg := smallConfig(POMTLB)
		cfg.DisableBypassPredictor = disable
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(context.Background(), trace.NewUniform(gupsParams(cfg.Cores)), "bypass")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on, off := run(false), run(true)
	if off.L2DProbe.Total() < on.L2DProbe.Total() {
		t.Errorf("disabling bypass shrank L2D probes: %d < %d",
			off.L2DProbe.Total(), on.L2DProbe.Total())
	}
	if off.BypassPred.Total() != 0 {
		t.Errorf("bypass predictor consulted %d times while disabled", off.BypassPred.Total())
	}
	// Every post-L2-miss lookup must start at the L2D$ when bypass is off.
	if off.L2DProbe.Total() == 0 {
		t.Error("bypass-off run never probed the L2D$")
	}
}
