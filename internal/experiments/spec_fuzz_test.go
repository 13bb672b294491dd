package experiments

import (
	"testing"

	"repro/internal/core"
)

// FuzzParseSpec throws arbitrary grid specs at the parser. The
// invariants: no input panics; every accepted spec contains only
// registered schemes and positive geometry whose pom-mb byte counts fit
// in 64 bits; its cells have distinct keys, so no cell runs twice; and
// the canonical rendering re-parses to the same canonical form (the
// journal's fingerprint depends on that fixed point).
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("schemes=pom-tlb,tsb:pom-mb=4,8,16:pom-ways=2,4")
	f.Add("schemes=victima,dram-cache:cores=2,4")
	f.Add("schemes=bogus")
	f.Add("pom-mb=0")
	f.Add("seeds=1,2:seeds=3")
	f.Add("pom-mb=4:pom-mb=8")
	f.Add("schemes=:cores=1")
	f.Add(":::")
	f.Add("tenants=16,128:churn=5000,-1:phases=2,3")
	f.Add("tenants=0")
	f.Add("churn=0")
	f.Add("churn=-2")
	f.Add("phases=1")
	f.Add("schemes=pom-tlb:pom-mb=17592186044432") // 16 MiB under a bare shift
	f.Add("schemes=pom-tlb:pom-mb=4,04")
	f.Add("seeds=1,1")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		for _, m := range sp.Schemes {
			if _, ok := core.SchemeFor(m); !ok {
				t.Errorf("ParseSpec(%q) accepted unregistered scheme %q", s, m)
			}
		}
		for _, v := range sp.PomMB {
			if v == 0 {
				t.Errorf("ParseSpec(%q) accepted pom-mb=0", s)
			}
			if v<<20>>20 != v {
				t.Errorf("ParseSpec(%q) accepted pom-mb=%d, whose byte count overflows", s, v)
			}
		}
		for _, v := range sp.PomWays {
			if v <= 0 {
				t.Errorf("ParseSpec(%q) accepted pom-ways=%d", s, v)
			}
		}
		for _, v := range sp.Cores {
			if v <= 0 {
				t.Errorf("ParseSpec(%q) accepted cores=%d", s, v)
			}
		}
		for _, v := range sp.Tenants {
			if v <= 0 {
				t.Errorf("ParseSpec(%q) accepted tenants=%d", s, v)
			}
		}
		for _, v := range sp.Churn {
			if v == 0 || v < -1 {
				t.Errorf("ParseSpec(%q) accepted churn=%d", s, v)
			}
		}
		for _, v := range sp.Phases {
			if v <= 0 {
				t.Errorf("ParseSpec(%q) accepted phases=%d", s, v)
			}
		}
		// Enumerate small grids only: the product of long lists is large.
		size := 1
		for _, n := range []int{len(sp.Schemes), len(sp.PomMB), len(sp.PomWays), len(sp.Cores),
			len(sp.Seeds), len(sp.Tenants), len(sp.Churn), len(sp.Phases)} {
			size *= max(n, 1)
			if size > 1<<12 {
				break
			}
		}
		if size <= 1<<12 {
			keys := map[string]bool{}
			for _, c := range sp.Cells([]string{"gups", "mcf"}) {
				if keys[c.Key()] {
					t.Errorf("ParseSpec(%q) accepted a grid with cell %q twice", s, c.Key())
				}
				keys[c.Key()] = true
			}
		}
		canon := sp.Canonical()
		sp2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", canon, s, err)
		}
		if got := sp2.Canonical(); got != canon {
			t.Errorf("canonical form is not a fixed point: %q -> %q -> %q", s, canon, got)
		}
	})
}
