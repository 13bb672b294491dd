package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/pomtlb"
)

// Spec is a design-space grid: every axis is a list of values to cross
// with the others. A nil axis means "inherit the base options" (one
// implicit value), so the zero Spec describes a single-variant sweep over
// workloads × schemes.
type Spec struct {
	// Schemes are the translation schemes to sweep (default: pom-tlb).
	Schemes []core.Mode
	// PomMB sweeps the POM-TLB capacity in MB.
	PomMB []uint64
	// PomWays sweeps the POM-TLB set associativity.
	PomWays []int
	// Cores sweeps the simulated core count.
	Cores []int
	// Seeds sweeps the trace-generator seed (replication axis).
	Seeds []uint64
	// Tenants sweeps the consolidation guest count (consolidation
	// workloads only; other cells ignore it).
	Tenants []int
	// Churn sweeps the shootdown-storm interval in records (-1 disables
	// storms; consolidation workloads only).
	Churn []int
	// Phases sweeps the per-tenant working-set phase count
	// (consolidation workloads only).
	Phases []int
}

// Variant is one geometry point of the grid: zero fields inherit the
// base options.
type Variant struct {
	PomMB   uint64
	PomWays int
	Cores   int
	Seed    uint64
	Tenants int
	Churn   int
	Phases  int
}

// Label renders the variant canonically ("pom-mb=4|pom-ways=2"); the
// all-inherit variant is "base".
func (v Variant) Label() string {
	var parts []string
	if v.PomMB != 0 {
		parts = append(parts, "pom-mb="+strconv.FormatUint(v.PomMB, 10))
	}
	if v.PomWays != 0 {
		parts = append(parts, "pom-ways="+strconv.Itoa(v.PomWays))
	}
	if v.Cores != 0 {
		parts = append(parts, "cores="+strconv.Itoa(v.Cores))
	}
	if v.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatUint(v.Seed, 10))
	}
	if v.Tenants != 0 {
		parts = append(parts, "tenants="+strconv.Itoa(v.Tenants))
	}
	if v.Churn != 0 {
		parts = append(parts, "churn="+strconv.Itoa(v.Churn))
	}
	if v.Phases != 0 {
		parts = append(parts, "phases="+strconv.Itoa(v.Phases))
	}
	if len(parts) == 0 {
		return "base"
	}
	return strings.Join(parts, "|")
}

// Cell is one grid coordinate: a (workload, scheme, variant) simulation.
// Index is the cell's position in the deterministic grid enumeration —
// the CSV row order and the tiebreaker every report sorts by.
type Cell struct {
	Index    int
	Workload string
	Mode     core.Mode
	Variant  Variant
}

// Key is the cell's stable identity in the journal and fault plans:
// "workload|scheme|variant", or "workload|scheme" for a cell with no
// geometry axis — the key campaign journals have always used.
func (c Cell) Key() string {
	key := c.Workload + "|" + c.Mode.String()
	if c.Variant == (Variant{}) {
		return key
	}
	return key + "|" + c.Variant.Label()
}

// Options materializes the campaign options for this cell: the base
// options with the variant's geometry applied and the workload subset
// cleared (the cell names its own workload).
func (c Cell) Options(base Options) Options {
	o := base
	if c.Variant.PomMB != 0 {
		// Spec.Validate refuses a PomMB whose byte count would wrap.
		o.POM.SizeBytes = c.Variant.PomMB << 20
	}
	if c.Variant.PomWays != 0 {
		o.POM.Ways = c.Variant.PomWays
	}
	if c.Variant.Cores != 0 {
		o.Cores = c.Variant.Cores
	}
	if c.Variant.Seed != 0 {
		o.Seed = c.Variant.Seed
	}
	if c.Variant.Tenants != 0 {
		o.Tenants = c.Variant.Tenants
	}
	if c.Variant.Churn != 0 {
		o.ChurnEvery = c.Variant.Churn
	}
	if c.Variant.Phases != 0 {
		o.Phases = c.Variant.Phases
	}
	o.Workloads = nil
	return o
}

// ParseSpec parses a grid spec of colon-separated axes, each
// "name=v1,v2,...":
//
//	schemes=pom-tlb,tsb:pom-mb=4,8,16:pom-ways=2,4
//
// Axes: schemes, pom-mb, pom-ways, cores, seeds, tenants, churn, phases.
// The last three apply to consolidation workloads only; churn accepts -1
// to disable storms. Unknown axes, duplicate axes, empty value lists,
// unparsable numbers, non-positive geometry and values past the
// simulator's hard limits (Validate) are rejected up front so a bad sweep
// fails before any cell runs.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	if strings.TrimSpace(s) == "" {
		return spec, fmt.Errorf("sweep: empty grid spec")
	}
	seen := map[string]bool{}
	for _, axis := range strings.Split(s, ":") {
		name, vals, ok := strings.Cut(strings.TrimSpace(axis), "=")
		if !ok {
			return spec, fmt.Errorf("sweep: axis %q is not name=v1,v2,...", axis)
		}
		name = strings.TrimSpace(name)
		if seen[name] {
			return spec, fmt.Errorf("sweep: axis %q given twice", name)
		}
		seen[name] = true
		var list []string
		for _, v := range strings.Split(vals, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return spec, fmt.Errorf("sweep: axis %q has an empty value", name)
			}
			list = append(list, v)
		}
		if len(list) == 0 {
			return spec, fmt.Errorf("sweep: axis %q has no values", name)
		}
		var err error
		switch name {
		case "schemes":
			spec.Schemes, err = parseModes(list)
		case "pom-mb":
			spec.PomMB, err = parseUints(name, list)
		case "pom-ways":
			spec.PomWays, err = parseInts(name, list)
		case "cores":
			spec.Cores, err = parseInts(name, list)
		case "seeds":
			spec.Seeds, err = parseUints(name, list)
		case "tenants":
			spec.Tenants, err = parseInts(name, list)
		case "churn":
			spec.Churn, err = parseChurn(list)
		case "phases":
			spec.Phases, err = parseInts(name, list)
		default:
			err = fmt.Errorf("sweep: unknown axis %q (axes: schemes, pom-mb, pom-ways, cores, seeds, tenants, churn, phases)", name)
		}
		if err != nil {
			return spec, err
		}
	}
	return spec, spec.Validate()
}

func parseModes(list []string) ([]core.Mode, error) {
	var out []core.Mode
	for _, s := range list {
		m, err := parseMode(s)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, noRepeats("schemes", out)
}

// noRepeats refuses an axis that lists one parsed value twice ("4,04"):
// the grid would enumerate the same cell twice under one key.
func noRepeats[T comparable](axis string, vs []T) error {
	seen := make(map[T]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return fmt.Errorf("sweep: axis %s: value %v given twice", axis, v)
		}
		seen[v] = true
	}
	return nil
}

func parseMode(s string) (core.Mode, error) {
	m, err := core.ParseMode(s)
	if err != nil {
		return "", fmt.Errorf("sweep: unknown scheme %q (%s)", s, strings.Join(core.ModeNames(), ", "))
	}
	return m, nil
}

func parseUints(axis string, list []string) ([]uint64, error) {
	var out []uint64
	for _, s := range list {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("sweep: axis %s: value %q must be a positive integer", axis, s)
		}
		out = append(out, v)
	}
	return out, noRepeats(axis, out)
}

func parseInts(axis string, list []string) ([]int, error) {
	var out []int
	for _, s := range list {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("sweep: axis %s: value %q must be a positive integer", axis, s)
		}
		out = append(out, v)
	}
	return out, noRepeats(axis, out)
}

// parseChurn parses the storm-interval axis: positive record counts, or
// -1 for "storms off" (0 would collide with the inherit sentinel).
func parseChurn(list []string) ([]int, error) {
	var out []int
	for _, s := range list {
		v, err := strconv.Atoi(s)
		if err != nil || v == 0 || v < -1 {
			return nil, fmt.Errorf("sweep: axis churn: value %q must be a positive interval or -1 (off)", s)
		}
		out = append(out, v)
	}
	return out, noRepeats("churn", out)
}

// Canonical renders the spec in fixed axis order with its original value
// order — the string hashed into the journal fingerprint, so any geometry
// change (values, order, a new axis) refuses to resume an old journal.
func (s Spec) Canonical() string {
	var parts []string
	if len(s.Schemes) > 0 {
		names := make([]string, len(s.Schemes))
		for i, m := range s.Schemes {
			names[i] = m.String()
		}
		parts = append(parts, "schemes="+strings.Join(names, ","))
	}
	if len(s.PomMB) > 0 {
		parts = append(parts, "pom-mb="+joinUints(s.PomMB))
	}
	if len(s.PomWays) > 0 {
		parts = append(parts, "pom-ways="+joinInts(s.PomWays))
	}
	if len(s.Cores) > 0 {
		parts = append(parts, "cores="+joinInts(s.Cores))
	}
	if len(s.Seeds) > 0 {
		parts = append(parts, "seeds="+joinUints(s.Seeds))
	}
	if len(s.Tenants) > 0 {
		parts = append(parts, "tenants="+joinInts(s.Tenants))
	}
	if len(s.Churn) > 0 {
		parts = append(parts, "churn="+joinInts(s.Churn))
	}
	if len(s.Phases) > 0 {
		parts = append(parts, "phases="+joinInts(s.Phases))
	}
	return strings.Join(parts, ":")
}

func joinUints(vs []uint64) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatUint(v, 10)
	}
	return strings.Join(out, ",")
}

func joinInts(vs []int) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.Itoa(v)
	}
	return strings.Join(out, ",")
}

// Validate rejects specs whose axes conflict with hard simulator limits.
func (s Spec) Validate() error {
	for _, mb := range s.PomMB {
		if _, err := pomtlb.MBToBytes(mb); err != nil {
			return fmt.Errorf("sweep: pom-mb=%d: %w", mb, err)
		}
	}
	for _, c := range s.Cores {
		if c > 256 {
			return fmt.Errorf("sweep: cores=%d exceeds the 256-core trace limit", c)
		}
	}
	for _, t := range s.Tenants {
		if t < 3 {
			return fmt.Errorf("sweep: tenants=%d below the 3-guest minimum (hot/warm/cold tiers)", t)
		}
		if t > 60_000 {
			return fmt.Errorf("sweep: tenants=%d exceeds the 60000-guest VA-window limit", t)
		}
	}
	return nil
}

// Cells enumerates the grid deterministically: workloads (outer), then
// schemes, capacity, ways, cores, seeds, tenants, churn, phases (inner).
// The enumeration order defines each cell's Index and therefore the CSV
// row order.
func (s Spec) Cells(workloadNames []string) []Cell {
	schemes := s.Schemes
	if len(schemes) == 0 {
		schemes = []core.Mode{core.POMTLB}
	}
	pomMB := orInheritU(s.PomMB)
	ways := orInheritI(s.PomWays)
	cores := orInheritI(s.Cores)
	seeds := orInheritU(s.Seeds)
	tenants := orInheritI(s.Tenants)
	churn := orInheritI(s.Churn)
	phases := orInheritI(s.Phases)

	var cells []Cell
	for _, w := range workloadNames {
		for _, m := range schemes {
			for _, mb := range pomMB {
				for _, wy := range ways {
					for _, cr := range cores {
						for _, sd := range seeds {
							for _, tn := range tenants {
								for _, ch := range churn {
									for _, ph := range phases {
										cells = append(cells, Cell{
											Index:    len(cells),
											Workload: w,
											Mode:     m,
											Variant: Variant{PomMB: mb, PomWays: wy, Cores: cr, Seed: sd,
												Tenants: tn, Churn: ch, Phases: ph},
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

func orInheritU(vs []uint64) []uint64 {
	if len(vs) == 0 {
		return []uint64{0}
	}
	return vs
}

func orInheritI(vs []int) []int {
	if len(vs) == 0 {
		return []int{0}
	}
	return vs
}
