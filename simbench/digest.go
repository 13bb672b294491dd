package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
)

// digestFile holds the committed digests of the simulated statistics at
// one seed. Regenerate it with `go test -run TestDigests -update`.
//
//go:embed testdata/digests.json
var digestFile []byte

// digestTable maps a workload (suffixed ".quick" at quick scale) and a
// scheme to the digest its outputs must reproduce at Seed.
type digestTable struct {
	Seed    uint64                       `json:"seed"`
	Digests map[string]map[string]string `json:"digests"`
}

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestFile, &t); err != nil {
		return t, fmt.Errorf("digests: %w", err)
	}
	return t, nil
}

// want returns the committed digest for (key, scheme) when the seed has
// one.
func (t digestTable) want(key string, seed uint64, mode core.Mode) (string, bool) {
	if seed != t.Seed {
		return "", false
	}
	d, ok := t.Digests[key][string(mode)]
	return d, ok
}

// digestResult hashes the simulated statistics a host-only change must
// leave identical: record, instruction and cycle counts, penalty cycles,
// the SRAM TLB and data-cache counters, off-chip DRAM counters and every
// resolve level by name.
func digestResult(r core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "records %d insts %d cycles %d penalty %d\n", r.Records, r.Insts, r.Cycles, r.PenaltyCycles)
	fmt.Fprintf(h, "l1tlb %d/%d l2tlb %d/%d\n", r.L1TLB.Hits, r.L1TLB.Misses, r.L2TLB.Hits, r.L2TLB.Misses)
	writeCache(h, "l2cache", r.L2Cache)
	writeCache(h, "l3cache", r.L3Cache)
	d := r.DDRStats
	fmt.Fprintf(h, "ddr %d %d %d %d %d %d %d %d %d\n", d.Refreshes, d.Accesses, d.RowHits, d.RowMisses,
		d.RowConfl, d.Reads, d.Writes, d.TotalWait, d.TotalCycle)
	for lvl, n := range r.Resolved {
		fmt.Fprintf(h, "%s %d\n", core.ResolveLevel(lvl), n)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeCache(w io.Writer, name string, st cache.Stats) {
	fmt.Fprint(w, name)
	for k, hm := range st.Access {
		fmt.Fprintf(w, " %d:%d/%d/%d", k, hm.Hits, hm.Misses, st.Evictions[k])
	}
	fmt.Fprintf(w, " wb %d\n", st.Writebacks)
}
