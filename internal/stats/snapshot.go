package stats

import "sync/atomic"

// This file holds the race-safe measurement primitives shared-state
// consumers (the pomsimd server, concurrent metric pollers) use. The plain
// counters in stats.go are deliberately unsynchronized — they live on the
// simulator's per-record hot path, which is single-threaded per System —
// so concurrent readers must either hold the owner's lock and copy
// (copy-on-read: HitMiss, Mean and the component Stats structs are pure
// value types, so `snap := counters` under the lock IS the snapshot), or
// use the atomic Counter below, which is safe to update and read from any
// goroutine without coordination.

// Counter is a monotonically increasing counter safe for concurrent use.
// The zero value is ready.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Snapshot returns the current value (copy-on-read).
func (c *Counter) Snapshot() uint64 { return c.v.Load() }
