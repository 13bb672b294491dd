package config

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// Limits Validate enforces on a configuration file, each at the value
// its package documents.
const (
	maxWays          = 16        // a set's recency word (caches, SRAM TLBs)
	maxCacheBytes    = 1 << 30   // cache levels and stacked caches
	maxTLBEntries    = 1 << 20   // SRAM TLBs
	maxAssocEntries  = 1024      // PSCs and the nested TLB
	maxDDRChannels   = 64        // off-chip channels
	maxBanks         = 1024      // banks per DRAM channel
	maxVictimaEntry  = 1 << 20   // Victima store entries per core
	maxInMemoryBytes = 256 << 20 // POM-TLB and TSB
)

// FuzzParseConfig throws arbitrary bytes at the config-file parser. No
// input may panic; an accepted file keeps every cache and SRAM TLB within
// 16 ways, every size the simulator allocates up front within its cap
// and the DDR bank count a power of two; and it round-trips through
// Marshal and Parse unchanged. No system is built, so an accepted size
// costs nothing here.
func FuzzParseConfig(f *testing.F) {
	def, err := Marshal(Default())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	// Each cap, and one past it. The seeds name only the fields they
	// change, since Parse starts from the defaults; short inputs keep
	// the fuzzer's mutations and minimization fast.
	for _, d := range []uint64{0, 1} {
		for _, js := range []string{
			`{"config":{"L3":{"SizeBytes":%[2]d,"Ways":%[1]d}}}`,
			`{"config":{"L2TLB":{"Entries":%[3]d,"Ways":%[1]d}}}`,
			`{"config":{"Mode":"dram-cache","DCache":{"SizeBytes":%[4]d,"Ways":%[1]d}}}`,
			`{"config":{"L2":{"SizeBytes":%[5]d,"Ways":4}}}`,
			`{"config":{"L2TLB":{"Entries":%[6]d,"Ways":4}}}`,
			`{"config":{"Walker":{"NestedTLB":%[7]d}}}`,
			`{"config":{"DDRChannels":%[8]d}}`,
			`{"config":{"DDR":{"Banks":%[9]d}}}`,
			`{"config":{"Mode":"victima","VictimaCfg":{"Sets":%[10]d,"DonatedWays":2}}}`,
			`{"config":{"Mode":"tsb","TSBCfg":{"SizeBytes":%[11]d}}}`,
			`{"config":{"Mode":"pom-tlb","POM":{"SizeBytes":%[11]d}}}`,
		} {
			f.Add([]byte(fmt.Sprintf(js,
				maxWays+d, (maxWays+d)*64*8192, (maxWays+d)*128, (maxWays+d)*64*16384,
				maxCacheBytes+d*256<<10, maxTLBEntries+d*4, maxAssocEntries+d,
				maxDDRChannels+d, maxBanks+d, maxVictimaEntry/2<<d, maxInMemoryBytes+d*16<<20)))
		}
	}
	f.Add([]byte(`{"config":{"POM":{"Ways":1152921504606846976}}}`))
	f.Add([]byte(`{"config":{"L1D":{"Ways":288230376151711744}}}`))
	f.Add([]byte(`{"config":{"DDR":{"Banks":12}}}`))
	f.Add([]byte(`{"workload":"","config":{}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		c := file.Config
		type level struct {
			name      string
			ways      int
			size, max uint64
		}
		levels := []level{
			{"L1D", c.L1D.Ways, c.L1D.SizeBytes, maxCacheBytes},
			{"L2", c.L2.Ways, c.L2.SizeBytes, maxCacheBytes},
			{"L3", c.L3.Ways, c.L3.SizeBytes, maxCacheBytes},
			{"L2TLB", c.L2TLB.Ways, uint64(c.L2TLB.Entries), maxTLBEntries},
		}
		if c.Mode == core.DRAMCache { // only the scheme that builds it checks it
			levels = append(levels, level{"DCache", c.DCache.Ways, c.DCache.SizeBytes, maxCacheBytes})
		}
		for _, l := range levels {
			if l.ways > maxWays || l.size > l.max {
				t.Errorf("accepted %s with %d ways and size %d (limits %d ways, %d)", l.name, l.ways, l.size, maxWays, l.max)
			}
		}
		w := c.Walker
		if w.PML4Entries > maxAssocEntries || w.PDPEntries > maxAssocEntries || w.PDEEntries > maxAssocEntries || w.NestedTLB > maxAssocEntries {
			t.Errorf("accepted walker caches %+v above %d entries", w, maxAssocEntries)
		}
		if c.DDRChannels > maxDDRChannels || c.DDR.Banks > maxBanks || c.DDR.Banks&(c.DDR.Banks-1) != 0 {
			t.Errorf("accepted %d DDR channels of %d banks", c.DDRChannels, c.DDR.Banks)
		}
		if c.Mode == core.Victima {
			sets := c.VictimaCfg.Sets
			if sets == 0 {
				sets = c.L2.Sets()
			}
			if c.VictimaCfg.DonatedWays > 0 && sets > maxVictimaEntry/uint64(c.VictimaCfg.DonatedWays) {
				t.Errorf("accepted a Victima store of %d sets × %d entries", sets, c.VictimaCfg.DonatedWays)
			}
		}
		if c.Mode == core.TSB && c.TSBCfg.SizeBytes > maxInMemoryBytes {
			t.Errorf("accepted a %d-byte TSB", c.TSBCfg.SizeBytes)
		}
		if (c.Mode == core.POMTLB || c.Mode == core.POMTLBNoCache) && c.POM.SizeBytes > maxInMemoryBytes {
			t.Errorf("accepted a %d-byte POM-TLB", c.POM.SizeBytes)
		}

		out, err := Marshal(file)
		if err != nil {
			t.Fatalf("accepted file does not marshal: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("marshalled file does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(again, file) {
			t.Errorf("round trip changed the file:\n%+v\n%+v", file, again)
		}
	})
}
