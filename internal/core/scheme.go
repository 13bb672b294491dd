package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/tlb"
)

// Scheme is the contract a translation scheme implements to plug into
// the System: everything that varies by scheme lives behind this
// interface, registered by name (RegisterScheme) instead of indexed by a
// closed enum. NewSystem resolves the mode's Scheme exactly once and
// stores it on the System, so no event path performs a registry lookup —
// the hot path stays a single indirect call and allocation-free.
//
// Hooks with nothing to do for a scheme are satisfied by embedding
// baseScheme. DESIGN.md §13 documents the full contract and how to add a
// scheme.
type Scheme interface {
	// Name is the registry key ("pom-tlb", "victima", ...).
	Name() Mode
	// Validate checks the scheme-specific part of the configuration
	// (Config.Validate runs the scheme-independent checks first).
	Validate(cfg *Config) error
	// CalibratedWalks reports whether experiment harnesses may charge
	// this scheme's page walks at the measured baseline cost (§3.3).
	// Schemes whose benefit lives inside the walk itself (L4Cache,
	// DRAMCache) must return false so their walks are always simulated,
	// and so does the baseline, whose walks are what was measured.
	CalibratedWalks() bool
	// Build constructs the scheme's large structure(s) during NewSystem
	// (cores do not exist yet; size them from s.cfg).
	Build(s *System)
	// Path resolves an L2 TLB miss — the Figure 8 per-scheme penalty
	// path. It must advance c.now by every serial step, install the
	// translation into the core's TLBs, and count exactly one Resolved
	// level.
	Path(s *System, c *coreState, va addr.VA) tlb.Entry
	// Seed installs a freshly-mapped page's translation into the
	// scheme's large structure under SteadyState; Seeds reports whether
	// the hook does anything (so the conformance suite knows what to
	// expect from Holds after a seed).
	Seed(s *System, c *coreState, va addr.VA, size addr.PageSize, pfn uint64)
	Seeds() bool
	// Shootdown drops one page's translation from the scheme's
	// structure, including any stale cached copies.
	Shootdown(s *System, vmid addr.VMID, pid addr.PID, va addr.VA, vpn uint64, size addr.PageSize)
	// ProcessExit flushes every translation of (vm, pid) from the
	// scheme's structure, returning the number of entries removed.
	ProcessExit(s *System, vmid addr.VMID, pid addr.PID) int
	// Holds reports whether the scheme's large structure currently holds
	// a translation for the page — a logical probe that must not perturb
	// recency or statistics (the conformance suite's residual check).
	Holds(s *System, vmid addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize) bool
	// AttachSelfCheck attaches the scheme's structures to the
	// differential oracle harness.
	AttachSelfCheck(s *System, sc *SelfCheck)
	// CheckInvariants validates the scheme's structures (the
	// scheme-independent hierarchy is checked by System.CheckInvariants).
	CheckInvariants(s *System) error
	// ResetStats clears the scheme's counters at the warmup boundary
	// (contents stay warm).
	ResetStats(s *System)
	// Aggregate folds the scheme's counters into a Result snapshot.
	Aggregate(s *System, res *Result)
}

// baseScheme provides the no-op defaults; concrete schemes embed it and
// override what they own.
type baseScheme struct{}

func (baseScheme) Validate(*Config) error { return nil }
func (baseScheme) CalibratedWalks() bool  { return true }
func (baseScheme) Build(*System)          {}
func (baseScheme) Seed(*System, *coreState, addr.VA, addr.PageSize, uint64) {
}
func (baseScheme) Seeds() bool { return false }
func (baseScheme) Shootdown(*System, addr.VMID, addr.PID, addr.VA, uint64, addr.PageSize) {
}
func (baseScheme) ProcessExit(*System, addr.VMID, addr.PID) int { return 0 }
func (baseScheme) Holds(*System, addr.VMID, addr.PID, addr.VA, addr.PageSize) bool {
	return false
}
func (baseScheme) AttachSelfCheck(*System, *SelfCheck) {}
func (baseScheme) CheckInvariants(*System) error       { return nil }
func (baseScheme) ResetStats(*System)                  {}
func (baseScheme) Aggregate(*System, *Result)          {}

// The scheme registry. Registration happens at init time (package core's
// own schemes below, or an importer's init); lookups after that are
// read-only, so no locking is needed.
var (
	schemeRegistry = map[Mode]Scheme{}
	schemeOrder    []Mode
)

// RegisterScheme adds a scheme to the registry under its Name. It
// panics on an empty or duplicate name — registration is init-time
// wiring, and a collision is a programming error.
func RegisterScheme(sch Scheme) {
	m := sch.Name()
	if m == "" {
		panic("core: scheme registered with empty name")
	}
	if _, dup := schemeRegistry[m]; dup {
		panic(fmt.Sprintf("core: scheme %q registered twice", m))
	}
	schemeRegistry[m] = sch
	schemeOrder = append(schemeOrder, m)
}

// SchemeFor resolves a mode's registered Scheme. The empty mode resolves
// to Baseline.
func SchemeFor(m Mode) (Scheme, bool) {
	sch, ok := schemeRegistry[m.normalize()]
	return sch, ok
}

// Modes lists every registered mode in registration order — the
// canonical scheme order for comparisons, sweeps and reports.
func Modes() []Mode {
	return append([]Mode(nil), schemeOrder...)
}

// ModeNames lists every registered mode name in registration order.
func ModeNames() []string {
	names := make([]string, len(schemeOrder))
	for i, m := range schemeOrder {
		names[i] = string(m)
	}
	return names
}

// CalibratedWalks reports whether the mode's walks may be charged at the
// measured baseline cost, which is also when a modelled improvement over
// that baseline means something. It is false for the baseline, for
// schemes that simulate their walks (l4-cache, dram-cache) and, only
// defensively, for unknown modes.
func CalibratedWalks(m Mode) bool {
	sch, ok := SchemeFor(m)
	return ok && sch.CalibratedWalks()
}

func init() {
	// Registration order is the canonical presentation order: the
	// paper's own four schemes and ablations first, then the related-work
	// competitors.
	RegisterScheme(baselineScheme{})
	RegisterScheme(pomScheme{})
	RegisterScheme(pomNoCacheScheme{})
	RegisterScheme(sharedScheme{})
	RegisterScheme(tsbScheme{})
	RegisterScheme(l4Scheme{})
	RegisterScheme(victimaScheme{})
	RegisterScheme(dramCacheScheme{})
}
