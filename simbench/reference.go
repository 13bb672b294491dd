package main

import "time"

// The virtual machines this benchmark is meant for change speed by up to a
// third over minutes, as other tenants load the caches and memory they
// share. A time measured once therefore says as much about the machine as
// about the simulator. Every timed operation is followed by one run of a
// fixed reference kernel, and the operation's throughput is scaled by how
// fast the kernel ran just then: a window that ran 30% slow because the
// machine did is matched by a kernel that did too, and the two cancel.
// The kernel is this file's code alone, so a change to the simulator
// moves the simulator's figures and not the kernel's.

const (
	// refSteps is one kernel run: about 10 ms at refNominal.
	refSteps = 2_000_000
	// refNominal is the kernel speed, in steps/s, that normalised figures
	// are stated at: near what a 2-vCPU Xeon virtual machine measures.
	refNominal = 2e8
)

// reference is the kernel: random read-modify-writes over an 8 MiB table,
// which like the simulator's record loop leans on the caches and memory
// more than on arithmetic.
type reference struct {
	table []uint64
	sink  uint64
}

func newReference() *reference { return &reference{table: make([]uint64, 1<<20)} }

// rate runs the kernel once and returns its speed in steps/s.
func (r *reference) rate() float64 {
	mask := uint64(len(r.table) - 1)
	x, acc := uint64(88172645463325252), uint64(0)
	t0 := time.Now()
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		v := r.table[j]
		acc += v ^ x
		r.table[j] = v + x>>3
	}
	d := time.Since(t0)
	r.sink += acc // keeps the loop from being optimised away
	return refSteps / d.Seconds()
}
