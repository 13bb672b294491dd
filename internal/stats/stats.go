// Package stats provides the light-weight measurement primitives the
// simulator layers share: hit/miss counters, scalar accumulators, and
// geometric means for summarising per-workload speedups the way the paper
// reports them.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// HitMiss counts accesses split into hits and misses.
type HitMiss struct {
	Hits   uint64
	Misses uint64
}

// Hit records one hit.
func (h *HitMiss) Hit() { h.Hits++ }

// Miss records one miss.
func (h *HitMiss) Miss() { h.Misses++ }

// Record adds a hit when hit is true and a miss otherwise.
func (h *HitMiss) Record(hit bool) {
	if hit {
		h.Hits++
	} else {
		h.Misses++
	}
}

// Total returns the number of recorded accesses.
func (h HitMiss) Total() uint64 { return h.Hits + h.Misses }

// Ratio returns hits/total, or 0 when nothing was recorded.
func (h HitMiss) Ratio() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Hits) / float64(t)
}

// MissRatio returns misses/total, or 0 when nothing was recorded.
func (h HitMiss) MissRatio() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Misses) / float64(t)
}

// Add merges another counter into this one.
func (h *HitMiss) Add(o HitMiss) {
	h.Hits += o.Hits
	h.Misses += o.Misses
}

// String implements fmt.Stringer.
func (h HitMiss) String() string {
	return fmt.Sprintf("%d/%d (%.2f%%)", h.Hits, h.Total(), 100*h.Ratio())
}

// CheckConservation verifies the hits + misses = total identity against an
// externally-known access count — the basic conservation law every counter
// in the simulator must obey. name labels the counter in the error.
func (h HitMiss) CheckConservation(name string, accesses uint64) error {
	if h.Total() != accesses {
		return fmt.Errorf("stats %s: hits %d + misses %d = %d, want %d accesses",
			name, h.Hits, h.Misses, h.Total(), accesses)
	}
	return nil
}

// Mean accumulates a running mean without storing samples.
type Mean struct {
	Sum   float64
	Count uint64
}

// Observe adds one sample.
func (m *Mean) Observe(x float64) {
	m.Sum += x
	m.Count++
}

// Value returns the mean, or 0 when no samples were observed.
func (m Mean) Value() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// Geomean returns the geometric mean of xs; zero and negative inputs are
// skipped (a speedup of ≤0 is a measurement artifact, not a datum). Returns
// 0 for an empty input.
func Geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ArithMean returns the arithmetic mean of xs, or 0 for empty input.
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table renders aligned ASCII tables for cmd/experiments output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Pct formats a fraction as a percentage with two decimals.
func Pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
