package oracle

import (
	"repro/internal/addr"
	"repro/internal/dram"
)

// RefDRAM is the naive per-bank open-row tracker: it keeps nothing but
// which row each bank last opened, recomputes the (bank, row)
// decomposition with division/modulo, and rederives each access's
// row-buffer classification and minimum possible latency from the
// configured timings. Timing waits (busy banks, bus contention, refresh
// stalls) are production-only state, so latency is checked as a lower
// bound rather than diffed exactly. It implements dram.Shadow.
type RefDRAM struct {
	h    *Harness
	name string
	t    dramTiming
	open []int64 // open row per bank, -1 when closed
	seen uint64  // refresh count at the last access

	// Minimum CPU-cycle cost per classification, plus burst + controller
	// overhead — recomputed from the raw timing parameters.
	hitLat, missLat, conflLat uint64
}

// NewRefDRAM builds the reference for ch's configuration and attaches it.
func NewRefDRAM(h *Harness, ch *dram.Channel) *RefDRAM {
	cfg := ch.Config()
	t := timingOf(cfg)
	r := &RefDRAM{
		h:        h,
		name:     cfg.Name,
		t:        t,
		open:     make([]int64, cfg.Banks),
		hitLat:   t.cpu(cfg.TCAS) + t.burst + cfg.CtrlOverhead,
		missLat:  t.cpu(cfg.TRCD+cfg.TCAS) + t.burst + cfg.CtrlOverhead,
		conflLat: t.cpu(cfg.TRP+cfg.TRCD+cfg.TCAS) + t.burst + cfg.CtrlOverhead,
	}
	for i := range r.open {
		r.open[i] = -1
	}
	ch.SetShadow(r)
	return r
}

// Access implements dram.Shadow.
func (r *RefDRAM) Access(a addr.HPA, write bool, refreshes uint64, res dram.Result) {
	r.h.Decision()
	if refreshes != r.seen {
		// A refresh window closed every row.
		for i := range r.open {
			r.open[i] = -1
		}
		r.seen = refreshes
	}
	bank, row := r.t.locate(uint64(a))
	if bank != res.Bank || row != res.Row {
		r.h.Reportf("dram %s: address %#x decomposed to bank %d row %#x, reference bank %d row %#x",
			r.name, uint64(a), res.Bank, res.Row, bank, row)
		return
	}
	var hit bool
	var floor uint64
	switch {
	case r.open[bank] == int64(row):
		hit, floor = true, r.hitLat
	case r.open[bank] < 0:
		hit, floor = false, r.missLat
	default:
		hit, floor = false, r.conflLat
	}
	if hit != res.RowBufferHit {
		r.h.Reportf("dram %s: access %#x (bank %d row %#x) production rowhit=%v, reference rowhit=%v",
			r.name, uint64(a), bank, row, res.RowBufferHit, hit)
	}
	if res.Latency < floor {
		r.h.Reportf("dram %s: access %#x latency %d below the %d-cycle floor for its classification",
			r.name, uint64(a), res.Latency, floor)
	}
	r.open[bank] = int64(row)
}

// dramTiming rederives a channel's geometry and timing from its raw
// configuration with division and modulo, independently of package
// dram's shift-and-mask arithmetic. RefDRAM and the Scheduler share it.
type dramTiming struct {
	cfg      dram.Config
	rowLines uint64 // lines per row, rounded up to a power of two
	burst    uint64 // CPU cycles to move one 64 B line over the DDR bus
}

func timingOf(cfg dram.Config) dramTiming {
	t := dramTiming{cfg: cfg, rowLines: 1}
	for t.rowLines < cfg.RowBytes/addr.CacheLineSize {
		t.rowLines *= 2
	}
	// The bus moves 2×BusBytes per bus cycle.
	t.burst = t.cpu((uint64(addr.CacheLineSize) + 2*cfg.BusBytes - 1) / (2 * cfg.BusBytes))
	return t
}

// cpu converts n DRAM bus cycles into CPU cycles, rounding up.
func (t dramTiming) cpu(n uint64) uint64 {
	return (n*t.cfg.CPUMHz + t.cfg.BusMHz - 1) / t.cfg.BusMHz
}

// locate maps a physical address onto its (bank, row): consecutive lines
// share a row, then move to the next bank.
func (t dramTiming) locate(a uint64) (bank int, row uint64) {
	upper := a / addr.CacheLineSize / t.rowLines
	banks := uint64(t.cfg.Banks)
	return int(upper % banks), upper / banks
}
