// Package dram implements the Ramulator-like DRAM timing substrate the
// paper's evaluation relies on (Section 3.3). It models channels, banks and
// open-page row buffers with the tCAS-tRCD-tRP timings from Table 1, and
// reports per-access latency plus whether the access hit in the row buffer
// (the statistic behind Figure 11).
//
// Two configurations from Table 1 ship as constructors:
//
//	DieStacked — 1 GHz bus (DDR 2 GHz), 128-bit, 2 KB rows, 11-11-11
//	DDR4_2133  — 1066 MHz bus (DDR 2133), 64-bit, 2 KB rows, 14-14-14
//
// The model is deliberately event-free: each access computes its latency
// from per-bank state (open row, busy-until time) and the channel data bus,
// which captures row-buffer locality and bank-level parallelism — the two
// DRAM properties the paper's results depend on — without a full
// cycle-by-cycle command scheduler.
package dram

import (
	"errors"
	"fmt"

	"repro/internal/addr"
)

// Config describes one DRAM channel's geometry and timing.
type Config struct {
	// Name labels the configuration in stats output.
	Name string
	// BusMHz is the I/O bus clock in MHz (data moves at DDR, 2× this).
	BusMHz uint64
	// BusBytes is the data-bus width in bytes per transfer edge.
	BusBytes uint64
	// RowBytes is the row-buffer (page) size per bank.
	RowBytes uint64
	// Banks is the number of banks in the channel.
	Banks int
	// TCAS, TRCD, TRP are the column-access, RAS-to-CAS and precharge
	// delays in DRAM bus cycles.
	TCAS, TRCD, TRP uint64
	// CPUMHz is the core clock used to convert DRAM cycles into the CPU
	// cycles the rest of the simulator accounts in.
	CPUMHz uint64
	// CtrlOverhead is a fixed memory-controller overhead in CPU cycles
	// added to every access (queueing, command issue, on-die routing).
	CtrlOverhead uint64
	// Requestors bounds the queueing wait: the simulator's cores are
	// in-order with one outstanding miss each, so no more than Requestors
	// transfers can physically be queued ahead of a new arrival. Without
	// the bound, the loose clock synchronization between cores would
	// charge phantom waits. 0 defaults to 8.
	Requestors int
	// TREFI is the refresh interval and TRFC the refresh cycle time, both
	// in CPU cycles (JEDEC: one refresh command per ~7.8 µs, blocking the
	// rank for tRFC ≈ 350 ns). 0 disables refresh modelling.
	TREFI uint64
	TRFC  uint64

	// FaultHook, when non-nil, runs at the start of every Access — the
	// fault-injection seam (internal/resilience/faultinject) used to fail
	// the N-th DRAM access deterministically. Never set in production
	// configurations; excluded from JSON round-trips.
	FaultHook func() `json:"-"`
}

// DieStacked returns the Table 1 die-stacked DRAM channel configuration.
func DieStacked() Config {
	return Config{
		Name:         "die-stacked",
		BusMHz:       1000,
		BusBytes:     16, // 128-bit
		RowBytes:     2048,
		Banks:        16,
		TCAS:         11,
		TRCD:         11,
		TRP:          11,
		CPUMHz:       4000,
		CtrlOverhead: 6,
		TREFI:        31_200, // 7.8 µs at 4 GHz
		TRFC:         1_400,  // 350 ns
	}
}

// DDR4_2133 returns the Table 1 off-chip DDR4-2133 configuration.
func DDR4_2133() Config {
	return Config{
		Name:         "DDR4-2133",
		BusMHz:       1066,
		BusBytes:     8, // 64-bit
		RowBytes:     2048,
		Banks:        16,
		TCAS:         14,
		TRCD:         14,
		TRP:          14,
		CPUMHz:       4000,
		CtrlOverhead: 10,
		TREFI:        31_200,
		TRFC:         1_400,
	}
}

// cpuCycles converts n DRAM bus cycles into CPU cycles, rounding up.
func (c Config) cpuCycles(n uint64) uint64 {
	return (n*c.CPUMHz + c.BusMHz - 1) / c.BusMHz
}

// BurstCycles returns the CPU cycles needed to move one 64 B line over the
// DDR data bus.
func (c Config) BurstCycles() uint64 {
	perCycle := 2 * c.BusBytes // DDR: two transfers per bus cycle
	bursts := (uint64(addr.CacheLineSize) + perCycle - 1) / perCycle
	return c.cpuCycles(bursts)
}

// maxBanks bounds Banks. New allocates one bank record per bank up
// front, so an unchecked count from a config file would exhaust host
// memory before anything could reject it. 1024 banks is 64× the 16 of
// each Table 1 channel.
const maxBanks = 1024

// ErrTooManyBanks is the error Validate wraps for a channel with more
// than maxBanks banks.
var ErrTooManyBanks = errors.New("banks exceed the 1024-bank limit")

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.BusMHz == 0 || c.CPUMHz == 0:
		return fmt.Errorf("dram %q: clocks must be nonzero", c.Name)
	case c.BusBytes == 0 || c.RowBytes == 0:
		return fmt.Errorf("dram %q: bus/row geometry must be nonzero", c.Name)
	case c.Banks <= 0:
		return fmt.Errorf("dram %q: need at least one bank", c.Name)
	case c.Banks > maxBanks:
		return fmt.Errorf("dram %q: %d %w", c.Name, c.Banks, ErrTooManyBanks)
	case c.RowBytes%addr.CacheLineSize != 0:
		return fmt.Errorf("dram %q: row size %d not a multiple of the line size", c.Name, c.RowBytes)
	}
	return nil
}

// bank holds the open-page state of one DRAM bank.
type bank struct {
	openRow   uint64
	hasOpen   bool
	busyUntil uint64 // CPU-cycle time the bank can accept the next command
}

// Result describes the outcome of one DRAM access.
type Result struct {
	// Latency is the access latency in CPU cycles, including any wait for
	// a busy bank or bus.
	Latency uint64
	// RowBufferHit is true when the access hit the open row.
	RowBufferHit bool
	// Bank and Row identify where the access landed (for tests/debugging).
	Bank int
	Row  uint64
}

// Stats aggregates DRAM channel activity.
type Stats struct {
	// Refreshes counts refresh windows the channel has retired.
	Refreshes  uint64
	Accesses   uint64
	RowHits    uint64
	RowMisses  uint64 // closed bank: activate needed
	RowConfl   uint64 // different row open: precharge + activate
	Reads      uint64
	Writes     uint64
	TotalWait  uint64 // cycles spent waiting on busy banks/bus
	TotalCycle uint64 // sum of access latencies
}

// RowBufferHitRate returns hits / accesses.
func (s Stats) RowBufferHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses)
}

// Shadow observes every DRAM access in program order. The differential
// oracle (internal/oracle) attaches one per channel and replays each
// access against a naive per-bank open-row tracker, flagging any
// disagreement in bank/row decomposition or row-buffer outcome.
// refreshes is the channel's total retired refresh count at the time of
// the access, so the tracker can mirror refresh-induced row closures.
type Shadow interface {
	Access(a addr.HPA, write bool, refreshes uint64, res Result)
}

// hook wraps an attached Shadow behind a concrete pointer: the
// unobserved hot path pays a single-word nil check instead of a
// two-word interface comparison, and the virtual call sits behind a
// branch the CPU predicts never-taken when no oracle is attached.
type hook struct{ s Shadow }

// Channel is one independently-timed DRAM channel.
type Channel struct {
	cfg     Config
	banks   []bank
	busBusy uint64 // CPU-cycle time the data bus frees up
	// nextRefresh is the CPU-cycle time of the next refresh command; a
	// refresh closes every row and occupies the rank for TRFC.
	nextRefresh uint64
	colBits     uint // log2(lines per row)
	bankMask    uint64
	stats       Stats
	shadow      *hook
	// refreshEpochs counts retired refresh windows like stats.Refreshes
	// but survives ResetStats, so the shadow's row-closure mirroring stays
	// aligned with bank state (which resets never touch).
	refreshEpochs uint64
}

// New creates a channel, reporting configuration errors.
func New(cfg Config) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	linesPerRow := cfg.RowBytes / addr.CacheLineSize
	colBits := uint(0)
	for 1<<colBits < linesPerRow {
		colBits++
	}
	return &Channel{
		cfg:      cfg,
		banks:    make([]bank, cfg.Banks),
		colBits:  colBits,
		bankMask: uint64(cfg.Banks - 1),
	}, nil
}

// MustNew is New but panics on an invalid configuration — the historical
// behavior, kept for the simulator core whose Config is validated up
// front: a broken substrate invalidates every simulation built on it.
func MustNew(cfg Config) *Channel {
	ch, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return ch
}

// Config returns the channel's configuration.
func (ch *Channel) Config() Config { return ch.cfg }

// SetShadow attaches (or, with nil, detaches) a lockstep observer.
func (ch *Channel) SetShadow(s Shadow) {
	if s == nil {
		ch.shadow = nil
		return
	}
	ch.shadow = &hook{s}
}

// decompose maps a physical address onto (bank, row, column). Consecutive
// cache lines share a row until the row is exhausted, then move to the next
// bank — the mapping that gives spatially-local streams the high row-buffer
// hit rates reported in Figure 11.
func (ch *Channel) decompose(a addr.HPA) (bankIdx int, row uint64) {
	line := a.Line()
	col := line & ((1 << ch.colBits) - 1)
	_ = col
	upper := line >> ch.colBits
	bankIdx = int(upper & ch.bankMask)
	row = upper >> uint(popcountMask(ch.bankMask))
	return bankIdx, row
}

// popcountMask returns the number of bits in a mask of form 2^k - 1.
func popcountMask(m uint64) int {
	n := 0
	for m != 0 {
		n++
		m >>= 1
	}
	return n
}

// Access performs one 64 B access at CPU-cycle time now and returns its
// latency and row-buffer outcome. State (open rows, busy times) advances.
//
// Banks pipeline: a bank is occupied for its own activate/CAS sequence,
// but the shared data bus is only held for the burst itself, so accesses
// to different banks overlap — the bank-level parallelism the paper's
// Section 2.2 relies on. Channel throughput is therefore bounded by the
// burst rate, not by the full access latency.
func (ch *Channel) Access(now uint64, a addr.HPA, write bool) Result {
	if ch.cfg.FaultHook != nil {
		ch.cfg.FaultHook()
	}
	bi, row := ch.decompose(a)
	b := &ch.banks[bi]

	req := uint64(ch.cfg.Requestors)
	if req == 0 {
		req = 8
	}

	// Retire any refresh windows that elapsed before this access: rows
	// close and the rank is unavailable for TRFC after each interval.
	// Only the last window's busy period can outlast the others, so every
	// elapsed window retires in one step, however long the gap since the
	// previous access (a trace record's Gap reaches 2^32 - 1 cycles).
	if ch.cfg.TREFI > 0 {
		if ch.nextRefresh == 0 {
			ch.nextRefresh = ch.cfg.TREFI
		}
		if now >= ch.nextRefresh {
			n := (now-ch.nextRefresh)/ch.cfg.TREFI + 1
			last := ch.nextRefresh + (n-1)*ch.cfg.TREFI
			for i := range ch.banks {
				ch.banks[i].hasOpen = false
				if end := last + ch.cfg.TRFC; ch.banks[i].busyUntil < end {
					ch.banks[i].busyUntil = end
				}
			}
			ch.nextRefresh = last + ch.cfg.TREFI
			ch.stats.Refreshes += n
			ch.refreshEpochs += n
		}
	}

	// The bank accepts the command once it has finished its previous one;
	// at most `req` full accesses can be queued ahead.
	bankStart := now
	if b.busyUntil > bankStart {
		bankStart = b.busyUntil
	}
	bankCap := now + req*ch.cfg.cpuCycles(ch.cfg.TRP+ch.cfg.TRCD+ch.cfg.TCAS)
	if bankStart > bankCap {
		bankStart = bankCap
	}

	var coreLat uint64
	var hit bool
	switch {
	case b.hasOpen && b.openRow == row:
		hit = true
		coreLat = ch.cfg.cpuCycles(ch.cfg.TCAS)
		ch.stats.RowHits++
	case !b.hasOpen:
		coreLat = ch.cfg.cpuCycles(ch.cfg.TRCD + ch.cfg.TCAS)
		ch.stats.RowMisses++
	default:
		coreLat = ch.cfg.cpuCycles(ch.cfg.TRP + ch.cfg.TRCD + ch.cfg.TCAS)
		ch.stats.RowConfl++
	}
	burst := ch.cfg.BurstCycles()

	// Data is ready at the bank after coreLat; it then needs a bus slot
	// (at most `req` bursts can be queued ahead on the bus).
	dataReady := bankStart + coreLat
	busStart := dataReady
	if ch.busBusy > busStart {
		busStart = ch.busBusy
	}
	if busCap := dataReady + req*burst; busStart > busCap {
		busStart = busCap
	}
	done := busStart + burst
	total := done - now + ch.cfg.CtrlOverhead
	wait := (bankStart - now) + (busStart - dataReady)

	b.hasOpen = true
	b.openRow = row
	b.busyUntil = done
	ch.busBusy = done

	ch.stats.Accesses++
	if write {
		ch.stats.Writes++
	} else {
		ch.stats.Reads++
	}
	ch.stats.TotalWait += wait
	ch.stats.TotalCycle += total

	res := Result{Latency: total, RowBufferHit: hit, Bank: bi, Row: row}
	if ch.shadow != nil {
		ch.shadow.s.Access(a, write, ch.refreshEpochs, res)
	}
	return res
}

// CheckInvariants validates the channel's accounting identities: every
// access is classified exactly once (hit + miss + conflict = accesses),
// is either a read or a write, and total latency can never be less than
// the time spent waiting. Returns the first violation found, or nil.
func (ch *Channel) CheckInvariants() error {
	s := ch.stats
	if s.RowHits+s.RowMisses+s.RowConfl != s.Accesses {
		return fmt.Errorf("dram %q: row outcomes %d+%d+%d != accesses %d",
			ch.cfg.Name, s.RowHits, s.RowMisses, s.RowConfl, s.Accesses)
	}
	if s.Reads+s.Writes != s.Accesses {
		return fmt.Errorf("dram %q: reads %d + writes %d != accesses %d",
			ch.cfg.Name, s.Reads, s.Writes, s.Accesses)
	}
	if s.TotalCycle < s.TotalWait {
		return fmt.Errorf("dram %q: total latency %d below total wait %d",
			ch.cfg.Name, s.TotalCycle, s.TotalWait)
	}
	return nil
}

// Stats returns a copy of the accumulated statistics.
func (ch *Channel) Stats() Stats { return ch.stats }

// ResetStats clears counters without disturbing bank state.
func (ch *Channel) ResetStats() { ch.stats = Stats{} }
