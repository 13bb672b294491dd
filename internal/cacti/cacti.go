// Package cacti provides the analytic SRAM access-latency model behind
// Figure 4: the paper used CACTI to show that naively growing an SRAM L2
// TLB quickly blows up its access latency, which is why a very large TLB
// must live in DRAM.
//
// The model follows the structure CACTI's own documentation describes for
// SRAM arrays: total delay is decoder + wordline/bitline + sense amp +
// output drive, where the array is split into banks/subarrays and the
// dominant growth term is the H-tree wire delay to reach a subarray, which
// scales with the physical side length (∝ √capacity), plus a logarithmic
// decoder term. Coefficients are calibrated so the normalized curve tracks
// published CACTI 6.5 numbers for a 32 nm process: latency roughly doubles
// from 16 KB to 256 KB and is ~10× at 16 MB.
package cacti

import (
	"fmt"
	"math"
)

// Model holds the analytic coefficients. The zero value is not usable;
// call Default.
type Model struct {
	// Fixed is the capacity-independent cost (sense amps, latching) in ns.
	Fixed float64
	// Decoder scales the log2(rows) decode depth, ns per level.
	Decoder float64
	// Wire scales the √capacity global-wire (H-tree) term, ns per √KB.
	Wire float64
}

// Default returns the 32 nm-calibrated model.
func Default() Model {
	return Model{
		Fixed:   0.25,
		Decoder: 0.05,
		Wire:    0.105,
	}
}

// AccessNS returns the modeled access time in nanoseconds for an SRAM
// array of the given capacity in bytes. It panics for capacities below one
// cache line — a configuration no TLB array could have.
func (m Model) AccessNS(capacityBytes uint64) float64 {
	if capacityBytes < 64 {
		panic(fmt.Sprintf("cacti: capacity %d below one line", capacityBytes))
	}
	kb := float64(capacityBytes) / 1024
	rows := math.Max(kb*1024/64, 1) // 64 B per row worth of cells
	return m.Fixed + m.Decoder*math.Log2(rows) + m.Wire*math.Sqrt(kb)
}

// Normalized reproduces Figure 4's y-axis: access latency normalized to a
// 16 KB array.
func (m Model) Normalized(capacityBytes uint64) float64 {
	return m.AccessNS(capacityBytes) / m.AccessNS(16<<10)
}

// Sweep returns (capacity, normalized latency) pairs for the Figure 4
// capacity range: 16 KB doubling up to 16 MB.
func (m Model) Sweep() []Point {
	var out []Point
	for cap := uint64(16 << 10); cap <= 16<<20; cap *= 2 {
		out = append(out, Point{CapacityBytes: cap, Normalized: m.Normalized(cap)})
	}
	return out
}

// Point is one sweep sample.
type Point struct {
	CapacityBytes uint64
	Normalized    float64
}
