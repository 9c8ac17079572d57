package main

import (
	"math"
	"time"
)

// The shared host's speed for this kind of code swings by up to 2× over
// seconds to minutes: simulator code (integer multiplies, float math,
// table updates) ran a fixed suite.Run in 0.09 s in one phase and 0.16 s
// in the next, while a dependent-latency integer loop stayed within 5%.
// A per-run median cannot remove a phase longer than the run, so every
// timed call is bracketed by a fixed kernel of the same kind, owned by
// the benchmark and untouched by any change to the program. wall_ref
// divides the call's wall time by the kernel's time around it.

// calibTable is the kernel's working set: 1 MiB, about a core's L2.
var calibTable = make([]float64, 1<<17)

// calibSink keeps the kernel's result live.
var calibSink float64

// calibRounds sizes the kernel at about 50 ms on the reference host.
const calibRounds = 1 << 20

// calibrate runs the reference kernel once and returns its wall time in
// seconds: four independent PCG streams, each step a float conversion,
// a logarithm and a read-modify-write of a pseudo-random table slot.
func calibrate() float64 {
	start := time.Now()
	var x [4]uint64
	for k := range x {
		x[k] = uint64(k+1) * 0x9e3779b97f4a7c15
	}
	mask := uint64(len(calibTable) - 1)
	acc := 0.0
	for i := 0; i < calibRounds; i++ {
		for k := range x {
			x[k] = x[k]*6364136223846793005 + 1442695040888963407
			u := float64(x[k]>>11) / (1 << 53)
			v := math.Log(u + 1e-12)
			calibTable[(x[k]>>30)&mask] += v
			acc += v * u
		}
	}
	calibSink += acc
	return time.Since(start).Seconds()
}
