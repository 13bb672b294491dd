package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Load reads and validates a trajectory file.
func Load(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if t.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("perf: %s: schema version %d, want %d", path, t.SchemaVersion, SchemaVersion)
	}
	if len(t.Schemes) == 0 {
		return nil, fmt.Errorf("perf: %s: no scheme results", path)
	}
	return &t, nil
}

// WriteFile serializes the trajectory as indented JSON with a trailing
// newline, so committed baselines diff cleanly.
func (t *Trajectory) WriteFile(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("perf: %w", err)
	}
	return nil
}

// Delta is one scheme's old-vs-new comparison.
type Delta struct {
	Scheme string
	// Old and New are records/sec.
	Old, New float64
	// Ratio is New/Old: >1 is a speedup, <1 a slowdown.
	Ratio float64
	// Regressed means the slowdown exceeds the comparison tolerance.
	Regressed bool
}

// Comparison is the scheme-by-scheme diff of two trajectories.
type Comparison struct {
	Deltas []Delta
	// Missing lists schemes present in the old trajectory but absent
	// from the new one; a disappearing scheme fails the gate.
	Missing []string
	// Ungated lists schemes present in the new trajectory but absent
	// from the old one. They have nothing to be compared with, so they
	// cannot regress; they are listed so the gap is visible.
	Ungated []string
	// Tolerance is the allowed fractional records/sec slowdown.
	Tolerance float64
}

// Regressed reports whether any scheme slowed beyond tolerance or
// disappeared.
func (c *Comparison) Regressed() bool {
	if len(c.Missing) > 0 {
		return true
	}
	for _, d := range c.Deltas {
		if d.Regressed {
			return true
		}
	}
	return false
}

// String renders the comparison as an aligned table.
func (c *Comparison) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %14s %14s %8s\n", "scheme", "old rec/s", "new rec/s", "ratio")
	for _, d := range c.Deltas {
		mark := ""
		if d.Regressed {
			mark = "  REGRESSED"
		}
		fmt.Fprintf(&b, "%-16s %14.0f %14.0f %7.2fx%s\n", d.Scheme, d.Old, d.New, d.Ratio, mark)
	}
	for _, m := range c.Missing {
		fmt.Fprintf(&b, "%-16s missing from new trajectory  REGRESSED\n", m)
	}
	for _, u := range c.Ungated {
		fmt.Fprintf(&b, "%-16s ungated (no baseline)\n", u)
	}
	return b.String()
}

// Compare diffs two trajectories on records/sec. tolerance is the
// allowed fractional slowdown (0.05 = 5%): a scheme regresses when
// new < old*(1-tolerance). Schemes that vanished are reported in
// Missing; schemes only present in the new trajectory in Ungated.
func Compare(old, new_ *Trajectory, tolerance float64) *Comparison {
	c := &Comparison{Tolerance: tolerance}
	for _, n := range new_.Schemes {
		if _, ok := old.Scheme(n.Scheme); !ok {
			c.Ungated = append(c.Ungated, n.Scheme)
		}
	}
	for _, o := range old.Schemes {
		n, ok := new_.Scheme(o.Scheme)
		if !ok {
			c.Missing = append(c.Missing, o.Scheme)
			continue
		}
		d := Delta{Scheme: o.Scheme, Old: o.RecordsPerSec, New: n.RecordsPerSec}
		if o.RecordsPerSec > 0 {
			d.Ratio = n.RecordsPerSec / o.RecordsPerSec
			d.Regressed = d.Ratio < 1-tolerance
		}
		c.Deltas = append(c.Deltas, d)
	}
	return c
}
