// Package consolidation composes the synthetic trace generators into
// multi-VM cloud-consolidation scenarios — the regime the paper's §2
// motivates for VMID/ASID-tagged POM-TLB entries: hundreds of guests
// sharing one translation hierarchy. A scenario is a deterministic
// cardinality-tiered tenant pool (a few hot guests carrying most of the
// Zipf popularity mass, a warm middle, a long cold tail of small
// footprints), a gang-scheduling plan that rotates tenants across cores
// at fixed record quanta, an optional schedule of TLB-shootdown storms
// and migration flushes, and optional phase-changing per-tenant working
// sets. Everything is derived from the seed with splitmix64, so scenario
// runs replay byte-identically — the invariant the sweep engine's
// kill/resume story rests on.
package consolidation

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Tier indexes the tenant popularity tiers, matching core.TierNames.
type Tier uint8

// Tier values.
const (
	Hot Tier = iota
	Warm
	Cold
)

// String names the tier.
func (t Tier) String() string {
	if int(t) < core.NumTiers {
		return core.TierNames[t]
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// Tenant is one VMID×PID address space in the pool.
type Tenant struct {
	Index int
	VMID  addr.VMID
	PID   addr.PID
	Tier  Tier
}

// Pool is the deterministic cardinality-tiered tenant pool. Popularity
// over tenants is Zipf with the configured skew: rank order follows the
// tier order, so the hot tier really is the popular one.
type Pool struct {
	Tenants []Tenant
	cdf     []float64
}

// maxGuests bounds the pool: VMIDs are uint16 with 0 reserved, and we
// leave headroom below the packing limit.
const maxGuests = 60_000

// NewPool builds a pool of guests split into hot/warm/cold tiers by
// hotFrac/warmFrac (each tier rounds to at least one tenant) with Zipf
// popularity skew over tenant ranks.
func NewPool(guests int, hotFrac, warmFrac, skew float64) (*Pool, error) {
	switch {
	case guests < 3:
		return nil, fmt.Errorf("consolidation: %d guests, need at least one per tier", guests)
	case guests > maxGuests:
		return nil, fmt.Errorf("consolidation: %d guests exceeds the %d VMID budget", guests, maxGuests)
	case hotFrac < 0 || warmFrac < 0 || hotFrac+warmFrac >= 1:
		return nil, fmt.Errorf("consolidation: tier fractions %.2f/%.2f leave no cold tail", hotFrac, warmFrac)
	case skew <= 0:
		return nil, fmt.Errorf("consolidation: tenant skew %f must be positive", skew)
	}
	hot := max(1, int(math.Round(float64(guests)*hotFrac)))
	warm := max(1, int(math.Round(float64(guests)*warmFrac)))
	if hot+warm >= guests {
		return nil, fmt.Errorf("consolidation: %d hot + %d warm tenants leave no cold tail of %d guests",
			hot, warm, guests)
	}
	p := &Pool{
		Tenants: make([]Tenant, guests),
		cdf:     make([]float64, guests),
	}
	sum := 0.0
	for i := range p.Tenants {
		tier := Cold
		switch {
		case i < hot:
			tier = Hot
		case i < hot+warm:
			tier = Warm
		}
		p.Tenants[i] = Tenant{Index: i, VMID: addr.VMID(i + 1), PID: 1, Tier: tier}
		sum += 1 / math.Pow(float64(i+1), skew)
		p.cdf[i] = sum
	}
	for i := range p.cdf {
		p.cdf[i] /= sum
	}
	return p, nil
}

// Pick maps a uniform draw in [0,1) to a tenant by Zipf popularity.
func (p *Pool) Pick(u float64) *Tenant {
	i := sort.SearchFloat64s(p.cdf, u)
	if i >= len(p.Tenants) {
		i = len(p.Tenants) - 1
	}
	return &p.Tenants[i]
}

// Config parameterizes a scenario build.
type Config struct {
	Preset workloads.Consolidation
	// Cores is the simulated core count — the number of gang-scheduling
	// slots.
	Cores int
	// Seed drives every random choice (plan, storms, tenant streams).
	Seed uint64
	// TotalRecords is the trace length (warmup + measured) the event
	// schedule must cover.
	TotalRecords uint64
	// Guests, ChurnEvery and Phases override the preset when positive
	// (sweep axes); ChurnEvery < 0 disables churn outright.
	Guests     int
	ChurnEvery int
	Phases     int
}

// Scenario is a ready-to-run consolidation workload: the composite
// generator plus the scheduled storm of scenario events. Attach with
// core.System.SetEvents and run Gen through core.System.Run.
type Scenario struct {
	Guests int
	Phases int
	Gen    trace.Generator
	Events []core.Event
}

// splitmix is the same deterministic generator the trace package uses,
// duplicated here because scenario-plan randomness must not perturb (or
// be perturbed by) any tenant's trace stream.
type splitmix struct{ s uint64 }

func (r *splitmix) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// mix derives a sub-seed; tenants and phases get decorrelated streams.
func mix(seed, salt uint64) uint64 {
	r := splitmix{s: seed ^ (salt+1)*0xD1342543DE82EF95}
	return r.Uint64()
}

// New builds a scenario. The build is deterministic in Config.
func New(cfg Config) (*Scenario, error) {
	preset := cfg.Preset
	guests := preset.Guests
	if cfg.Guests > 0 {
		guests = cfg.Guests
	}
	phases := preset.Phases
	if cfg.Phases > 0 {
		phases = cfg.Phases
	}
	churn := preset.ChurnEvery
	if cfg.ChurnEvery > 0 {
		churn = uint64(cfg.ChurnEvery)
	} else if cfg.ChurnEvery < 0 {
		churn = 0
	}
	switch {
	case preset.Name == "":
		return nil, fmt.Errorf("consolidation: preset has no name")
	case cfg.Cores <= 0 || cfg.Cores > 256:
		return nil, fmt.Errorf("consolidation: cores %d out of range", cfg.Cores)
	case cfg.TotalRecords == 0:
		return nil, fmt.Errorf("consolidation: zero-length trace")
	}
	pool, err := NewPool(guests, preset.HotFrac, preset.WarmFrac, preset.TenantSkew)
	if err != nil {
		return nil, err
	}
	quantum := preset.QuantumRecords
	if quantum == 0 {
		quantum = 4096
	}

	// Gang-scheduling plan: for every quantum, each core slot draws a
	// tenant by Zipf popularity (re-rolling per slot so one quantum can
	// host several hot guests at once). Precomputed so the generator and
	// the event schedule agree on it exactly.
	planRNG := splitmix{s: mix(cfg.Seed, 0x9a4c)}
	quanta := int(cfg.TotalRecords/quantum) + 2
	plan := make([][]int, quanta)
	for q := range plan {
		plan[q] = make([]int, cfg.Cores)
		for slot := range plan[q] {
			plan[q][slot] = pool.Pick(planRNG.Float64()).Index
		}
	}

	scn := &Scenario{
		Guests: guests,
		Phases: max(phases, 1),
	}
	scn.Gen = &Gen{
		cores:   cfg.Cores,
		quantum: quantum,
		plan:    plan,
		gens:    make([]trace.Generator, guests),
		build: func(i int) trace.Generator {
			return tenantGen(cfg, preset, pool.Tenants[i], scn.Phases)
		},
		scratch: make([]trace.Record, trace.Batch),
		rowQ:    -1,
		leader:  make([]int, cfg.Cores),
		cur:     make([]int, cfg.Cores),
	}

	// Tenant-switch events at every quantum boundary. At counts
	// consumed records while the plan indexes generated records; the
	// scheduler's bounded per-core buffering smears the boundary by a
	// deterministic handful of records — the simulated analogue of a
	// context switch draining in-flight work.
	for q := 0; uint64(q)*quantum <= cfg.TotalRecords; q++ {
		assign := plan[q%len(plan)]
		at := uint64(q) * quantum
		scn.Events = append(scn.Events, core.Event{At: at, Fire: func(s *core.System) {
			for slot, ti := range assign {
				t := pool.Tenants[ti]
				if err := s.SetCoreTenant(slot, t.VMID, t.PID, uint8(t.Tier)); err != nil {
					panic(fmt.Sprintf("consolidation: tenant switch: %v", err))
				}
			}
		}})
	}

	// Shootdown storms: every churn interval, a burst of page shootdowns
	// against popularity-picked victims (hot guests absorb most of the
	// invalidation traffic, as real consolidated hosts see), with every
	// Nth storm also flushing one victim end to end — the VM-migration /
	// ballooning case. Victim addresses are precomputed so the schedule
	// is pure data by the time the simulation runs.
	if churn > 0 {
		stormRNG := splitmix{s: mix(cfg.Seed, 0x51f0)}
		size := preset.StormShootdowns
		if size <= 0 {
			size = 8
		}
		storm := 0
		for at := churn; at <= cfg.TotalRecords; at += churn {
			storm++
			type blast struct {
				vmid addr.VMID
				pid  addr.PID
				va   addr.VA
			}
			blasts := make([]blast, size)
			for j := range blasts {
				t := pool.Pick(stormRNG.Float64())
				prof := tierProfile(preset, *t)
				params := trace.Params{
					Seed:           mix(cfg.Seed, uint64(t.Index)),
					FootprintBytes: prof.FootprintBytes,
					LargeFrac:      prof.LargePagePct / 100,
					Threads:        1,
					BaseVA:         prof.BaseVA,
				}
				_, _, smallBase, smallBytes := params.Regions()
				pages := smallBytes / addr.Bytes4K
				page := stormRNG.Uint64() % max(pages, 1)
				blasts[j] = blast{t.VMID, t.PID, addr.VA(smallBase + page*addr.Bytes4K)}
			}
			var migrate *Tenant
			if preset.MigrateEveryStorms > 0 && storm%preset.MigrateEveryStorms == 0 {
				migrate = pool.Pick(stormRNG.Float64())
			}
			scn.Events = append(scn.Events, core.Event{At: at, Fire: func(s *core.System) {
				for _, b := range blasts {
					s.Shootdown(b.vmid, b.pid, b.va, addr.Page4K)
				}
				if migrate != nil {
					s.ProcessExit(migrate.VMID, migrate.PID)
				}
			}})
		}
	}
	return scn, nil
}

// tierProfile returns the preset's trace profile for a tier, rebased to
// the tenant's private VA window. Tenants get disjoint 1 GB windows:
// core scheduling smears a bounded handful of records across tenant
// switches (see core.Event), and with a shared heap base one tenant's
// 2 MB region would overlap another's 4 KB region — a stray record would
// then demand-map a conflicting page size into the wrong address space.
// Disjoint windows make every VA region's page size globally consistent.
func tierProfile(preset workloads.Consolidation, t Tenant) workloads.Profile {
	var prof workloads.Profile
	switch t.Tier {
	case Hot:
		prof = preset.Hot
	case Warm:
		prof = preset.Warm
	default:
		prof = preset.Cold
	}
	prof.BaseVA = tenantBaseVA + uint64(t.Index)<<tenantVAShift
	return prof
}

// Tenant VA windows: 1 GB apart starting at the trace default heap base.
// 60k tenants end at ~2^46, inside the 48-bit canonical range, and 1 GB
// comfortably holds the preset footprints plus the layout gap.
const (
	tenantBaseVA  = 0x10_0000_0000
	tenantVAShift = 30
)

// tenantGen builds one tenant's private trace stream: a single-threaded
// instance of its tier profile, optionally phase-cycled so the working
// set grows back and forth between ~35% and 100% of the tier footprint.
func tenantGen(cfg Config, preset workloads.Consolidation, t Tenant, phases int) trace.Generator {
	prof := tierProfile(preset, t)
	seed := mix(cfg.Seed, uint64(t.Index))
	if phases <= 1 {
		return prof.Generator(1, seed)
	}
	phaseLen := cfg.TotalRecords / uint64(cfg.Cores*phases)
	if phaseLen < 2048 {
		phaseLen = 2048
	}
	// The 2 MB-page region must be identical in every phase: phases share
	// the tenant's VA window, and shrinking the large region would move
	// the 4 KB region's base over addresses an earlier phase mapped as
	// 2 MB pages. So phases scale the 4 KB tail only.
	largeFull := uint64(float64(prof.FootprintBytes)*prof.LargePagePct/100) &^ (addr.Bytes2M - 1)
	phs := make([]trace.Phase, phases)
	for k := range phs {
		p := prof
		frac := 0.35 + 0.65*float64(k+1)/float64(phases)
		p.FootprintBytes = uint64(float64(prof.FootprintBytes) * frac)
		if p.FootprintBytes < largeFull+addr.Bytes2M {
			p.FootprintBytes = largeFull + addr.Bytes2M
		}
		if largeFull > 0 {
			// Chosen so the layout's truncation lands exactly on largeFull.
			p.LargePagePct = 100 * (float64(largeFull) + float64(addr.Bytes2M)/2) / float64(p.FootprintBytes)
		}
		phs[k] = trace.Phase{Records: phaseLen, Gen: p.Generator(1, mix(seed, uint64(k)))}
	}
	return trace.NewPhased(phs...)
}

// Gen interleaves the pool's tenant streams under the gang-scheduling
// plan: generated record i belongs to slot i%cores, and during quantum q
// slot s draws from plan[q][s]'s tenant, re-threaded onto the slot so
// the core scheduler routes it to the right core. Tenant sub-generators
// build lazily (a thousand-guest pool only pays for tenants the plan
// actually schedules) but deterministically — construction depends only
// on the tenant index and seed, never on when it happens.
type Gen struct {
	cores   int
	quantum uint64
	plan    [][]int
	gens    []trace.Generator
	build   func(i int) trace.Generator
	count   uint64

	// Fill's scratch, allocated once: the segment's records grouped by
	// tenant, the plan row the grouping describes, each slot's leader
	// (the first slot of its row holding the same tenant) and each
	// leader's cursor into scratch.
	scratch []trace.Record
	rowQ    int
	leader  []int
	cur     []int
}

// tenant returns tenant ti's generator, building it on first use.
func (g *Gen) tenant(ti int) trace.Generator {
	sub := g.gens[ti]
	if sub == nil {
		sub = g.build(ti)
		g.gens[ti] = sub
	}
	return sub
}

// Next implements trace.Generator.
func (g *Gen) Next() trace.Record {
	slot := int(g.count % uint64(g.cores))
	q := int(g.count/g.quantum) % len(g.plan)
	rec := g.tenant(g.plan[q][slot]).Next()
	rec.Thread = uint8(slot)
	g.count++
	return rec
}

// Fill implements trace.Generator with Next's stream, one quantum
// segment at a time: each tenant the plan row schedules fills, in one
// call, the records of every slot it holds in position order, and the
// records are then scattered to their positions with Thread set to the
// slot.
func (g *Gen) Fill(buf []trace.Record) int {
	for done := 0; done < len(buf); {
		q := int(g.count/g.quantum) % len(g.plan)
		n := min(len(buf)-done, len(g.scratch), int(g.quantum-g.count%g.quantum))
		g.group(q)
		first := int(g.count % uint64(g.cores))
		// Count each leader's records in the segment: slot s holds every
		// cores-th position from first, and the n%cores slots from first
		// one more than the rest. Each count then becomes the leader's
		// offset in scratch, and its cursor while scattering.
		per, extra := n/g.cores, n%g.cores
		clear(g.cur)
		for s, l := range g.leader {
			g.cur[l] += per
			if (s-first+g.cores)%g.cores < extra {
				g.cur[l]++
			}
		}
		off := 0
		for s, l := range g.leader {
			if k := g.cur[s]; l == s && k > 0 {
				g.tenant(g.plan[q][s]).Fill(g.scratch[off : off+k])
				g.cur[s] = off
				off += k
			}
		}
		s := first
		for i := range buf[done : done+n] {
			l := g.leader[s]
			rec := &buf[done+i]
			*rec = g.scratch[g.cur[l]]
			rec.Thread = uint8(s)
			g.cur[l]++
			if s++; s == g.cores {
				s = 0
			}
		}
		g.count += uint64(n)
		done += n
	}
	return len(buf)
}

// group points every slot of plan row q at its leader.
func (g *Gen) group(q int) {
	if q == g.rowQ {
		return
	}
	g.rowQ = q
	row := g.plan[q]
	for s, ti := range row {
		g.leader[s] = s
		for l := range s {
			if row[l] == ti {
				g.leader[s] = l
				break
			}
		}
	}
}
