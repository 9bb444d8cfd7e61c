package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
)

// calibrator measures how fast the host is right now. Over minutes the
// reference host's speed drifts by up to 2× with its neighbours' load, and
// memory-heavy work slows the most. The probe is the geometric mean of four
// timings, each of a path the workloads lean on, each taken calibRounds
// times:
//
//   - fault: fault in and zero a fresh anonymous mapping, page by page;
//   - alloc: allocate pointer-holding 64-byte objects in batches and collect
//     them, the Go allocator and garbage collector;
//   - stream: copy two resident buffers into each other, memory bandwidth;
//   - handoff: pass a value back and forth between two goroutines, the Go
//     scheduler's switch path.
//
// The four were chosen by timing candidates beside the workloads in
// windows of 25 minutes in which the workloads slowed up to 2×; see
// bench/README.md. The
// parent measures the probe between consecutive repetitions, and the
// end-to-end times are scaled to the reference host's speed (see speed).
// The probe is benchmark code, so a change under test cannot move it.
type calibrator struct {
	bytes int
	a, b  []byte  // the stream probe's buffers, resident for the whole run
	last  float64 // the latest measurement, in seconds, scaled to calibBytes
}

// calibBytes is the probe's size: the mapping the fault probe touches, twice
// what the alloc probe allocates, and the two stream buffers together.
const calibBytes = 128 << 20

// calibHandoffs is the handoff probe's round trips at full size.
const calibHandoffs = 100000

// calibRounds is how many times one measurement takes the four timings. A
// single round reads ±15% on a quiet host; over ten runs of every workload
// on the reference host two rounds cut the spread of regional's scaled
// ops_per_s from 0.097 to 0.038 and serve's from 0.093 to 0.061.
const calibRounds = 2

// calibRefS is the probe's time on the reference host (a 2-vCPU Sapphire
// Rapids KVM guest) in its fast regime.
const calibRefS = 0.050

// newCalibrator takes a first measurement; at smoke-test scale the probe
// is 4 MB, which measures nothing useful but keeps the code path.
func newCalibrator(tiny bool) *calibrator {
	c := &calibrator{bytes: calibBytes}
	if tiny {
		c.bytes = 4 << 20
	}
	c.a, c.b = make([]byte, c.bytes/2), make([]byte, c.bytes/2)
	c.stream() // fault the buffers in, so the first measurement is warm
	c.measure()
	return c
}

// measure runs the four probes calibRounds times and returns the geometric
// mean of their times, in seconds. Should the mapping fail it reads as the
// reference.
func (c *calibrator) measure() float64 {
	prod := 1.0
	for r := 0; r < calibRounds; r++ {
		fault, err := c.fault()
		if err != nil {
			c.last = calibRefS
			return c.last
		}
		prod *= fault * c.alloc() * c.stream() * c.handoff()
	}
	geo := math.Pow(prod, 1.0/(4*calibRounds))
	c.last = geo * calibBytes / float64(c.bytes)
	return c.last
}

// fault maps, touches and unmaps a fresh region.
func (c *calibrator) fault() (float64, error) {
	t0 := time.Now()
	b, err := syscall.Mmap(-1, 0, c.bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	elapsed := since(t0)
	return elapsed, syscall.Munmap(b)
}

// probeNode is the alloc probe's object: one pointer the collector must
// trace, padded to the 64-byte size class.
type probeNode struct {
	next *probeNode
	_    [6]int64
}

// probeLive holds the alloc probe's current batch, so the compiler cannot
// drop the allocations.
var probeLive []*probeNode

// alloc allocates bytes/2 of probeNodes in four batches, each live until
// the next replaces it, then collects them all.
func (c *calibrator) alloc() float64 {
	const batches = 4
	n := c.bytes / 2 / 64 / batches
	t0 := time.Now()
	for r := 0; r < batches; r++ {
		batch := make([]*probeNode, n)
		for i := range batch {
			batch[i] = &probeNode{}
		}
		probeLive = batch
	}
	probeLive = nil
	runtime.GC()
	return since(t0)
}

// stream copies the two buffers into each other three times each way.
func (c *calibrator) stream() float64 {
	t0 := time.Now()
	for r := 0; r < 3; r++ {
		copy(c.b, c.a)
		copy(c.a, c.b)
	}
	return since(t0)
}

// handoff sends a value to another goroutine and waits for it to come
// back, calibHandoffs times at full size (scaled down with the probe size).
func (c *calibrator) handoff() float64 {
	n := calibHandoffs * c.bytes / calibBytes
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ping <- i
		<-pong
	}
	elapsed := since(t0)
	close(ping)
	return elapsed
}

// speed is the host's speed relative to the reference during a
// repetition bracketed by the measurements before and after it: below 1
// when the host is slower than the reference.
func speed(before, after float64) float64 {
	return calibRefS / ((before + after) / 2)
}
