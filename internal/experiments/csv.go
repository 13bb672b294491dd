package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// WriteCSVs runs the main figures and writes one CSV per figure into dir,
// for plotting with external tools, and returns the written paths. The
// directory is created if missing; each CSV lands via a temp file and an
// atomic rename, so an error can never leave a half-written CSV behind.
// Figures of a degraded campaign still produce their partial CSVs; the
// combined *CampaignError is returned alongside the paths that were
// written.
func WriteCSVs(ctx context.Context, dir string, r *Runner) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	var fs failureSet
	var written []string
	write := func(name string, header []string, rows [][]string) error {
		path := filepath.Join(dir, name)
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		err = w.Write(header)
		if err == nil {
			err = w.WriteAll(rows)
		}
		if err == nil {
			w.Flush()
			err = w.Error()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			os.Remove(tmp) // no partial file survives a failed write
			return err
		}
		written = append(written, path)
		return nil
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

	f2, err := Figure2(ctx, r)
	fs.absorb(err)
	rows := make([][]string, len(f2))
	for i, row := range f2 {
		rows[i] = []string{row.Name, ff(row.PaperCyc), ff(row.SimCyc), ff(row.MissRatio)}
	}
	if err := write("fig2_translation_cycles.csv",
		[]string{"benchmark", "paper_cycles", "sim_cycles", "l2tlb_miss_ratio"}, rows); err != nil {
		return written, err
	}

	f4 := Figure4()
	rows = rows[:0]
	for _, pt := range f4 {
		rows = append(rows, []string{strconv.FormatUint(pt.CapacityBytes, 10), ff(pt.Normalized)})
	}
	if err := write("fig4_sram_scaling.csv",
		[]string{"capacity_bytes", "normalized_latency"}, rows); err != nil {
		return written, err
	}

	f8, sum, err := Figure8(ctx, r)
	fs.absorb(err)
	rows = rows[:0]
	for _, row := range f8 {
		rows = append(rows, []string{row.Name, ff(row.POM), ff(row.Shared), ff(row.TSB),
			ff(row.POMPen), ff(row.ShPen), ff(row.TSBPen), ff(row.BasePen)})
	}
	rows = append(rows, []string{"GEOMEAN", ff(sum.POMGeomeanPct), ff(sum.SharedGeomeanPct),
		ff(sum.TSBGeomeanPct), "", "", "", ""})
	if err := write("fig8_speedup.csv",
		[]string{"benchmark", "pom_pct", "shared_pct", "tsb_pct",
			"p_pom", "p_shared", "p_tsb", "p_base"}, rows); err != nil {
		return written, err
	}

	f9, err := Figure9(ctx, r)
	fs.absorb(err)
	rows = rows[:0]
	for _, row := range f9 {
		rows = append(rows, []string{row.Name, ff(row.L2D), ff(row.L3D), ff(row.POM), ff(row.WalkEl)})
	}
	if err := write("fig9_hit_ratio.csv",
		[]string{"benchmark", "l2d", "l3d", "pom", "walk_elimination"}, rows); err != nil {
		return written, err
	}

	f10, err := Figure10(ctx, r)
	fs.absorb(err)
	rows = rows[:0]
	for _, row := range f10 {
		rows = append(rows, []string{row.Name, ff(row.SizeAcc), ff(row.BypassAcc)})
	}
	if err := write("fig10_predictors.csv",
		[]string{"benchmark", "size_accuracy", "bypass_accuracy"}, rows); err != nil {
		return written, err
	}

	f11, err := Figure11(ctx, r)
	fs.absorb(err)
	rows = rows[:0]
	for _, row := range f11 {
		rows = append(rows, []string{row.Name, ff(row.RBH), strconv.FormatUint(row.Accesses, 10)})
	}
	if err := write("fig11_row_buffer.csv",
		[]string{"benchmark", "rbh", "dram_accesses"}, rows); err != nil {
		return written, err
	}

	f12, withAvg, noAvg, err := Figure12(ctx, r)
	fs.absorb(err)
	rows = rows[:0]
	for _, row := range f12 {
		rows = append(rows, []string{row.Name, ff(row.WithCache), ff(row.NoCache)})
	}
	rows = append(rows, []string{"GEOMEAN", ff(withAvg), ff(noAvg)})
	if err := write("fig12_caching.csv",
		[]string{"benchmark", "with_caching_pct", "without_pct"}, rows); err != nil {
		return written, err
	}

	return written, fs.err()
}

// orderedCSV streams rows to an underlying writer in strict index order
// while accepting them in any order — the bridge between a concurrent
// sweep (cells finish whenever their simulations do) and a results file
// whose bytes must be identical run over run. Rows are buffered only
// while an earlier index is still outstanding; as soon as the contiguous
// prefix extends, it is flushed, so a sweep whose workers take cells in
// index order, and whose cells take similar times, holds O(workers) rows
// in memory instead of the whole grid. Quarantined cells call Skip
// so the prefix can advance past indices that will never produce a row.
// Safe for concurrent use.
type orderedCSV struct {
	mu      sync.Mutex
	w       *csv.Writer
	next    int
	pending map[int][]string
	skipped map[int]bool
}

// newOrderedCSV writes the header immediately and returns the streaming
// writer.
func newOrderedCSV(w io.Writer, header []string) (*orderedCSV, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return nil, err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, err
	}
	return &orderedCSV{w: cw, pending: map[int][]string{}, skipped: map[int]bool{}}, nil
}

// Put hands over the row for index i; it is written once every smaller
// index has been Put or Skipped.
func (o *orderedCSV) Put(i int, row []string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.pending[i] = row
	return o.advance()
}

// Skip marks index i as permanently rowless (a quarantined cell), letting
// the contiguous prefix flush past it.
func (o *orderedCSV) Skip(i int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.skipped[i] = true
	return o.advance()
}

// advance flushes the contiguous prefix. Caller holds o.mu.
func (o *orderedCSV) advance() error {
	for {
		if row, ok := o.pending[o.next]; ok {
			if err := o.w.Write(row); err != nil {
				return err
			}
			delete(o.pending, o.next)
			o.next++
			continue
		}
		if o.skipped[o.next] {
			delete(o.skipped, o.next)
			o.next++
			continue
		}
		break
	}
	o.w.Flush()
	return o.w.Error()
}
