package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration. The benchmark's machine changes speed by ±15 %
// over seconds to minutes (frequency and shared-core contention; a
// fixed-work loop shows it as plainly as the program does), which swamps
// the differences a benchmark must resolve. So before every timed operation
// the benchmark runs a fixed kernel of integer arithmetic, branches and
// L1/L2-resident loads, and every host time it reports is rescaled to the
// speed at which that kernel takes refKernelMs:
//
//	reported = measured × refKernelMs / kernel time around the operation
//
// The kernel is the benchmark's own code, so a change to the program under
// test cannot move it; the raw figures are printed next to the rescaled ones.

// refKernelMs is the kernel time the reported host times are rescaled to:
// its typical duration on a 2-vCPU Xeon cloud VM.
const refKernelMs = 0.45

// calWindow is how many neighbouring kernel samples (centred on the
// operation) the speed estimate for one operation takes the median of.
const calWindow = 9

type calibration struct {
	table   []uint64
	sink    atomic.Uint64
	samples []float64 // kernel times in ms, one per timed operation
	wide    []bool    // samples[i] ran the kernel on every CPU at once
}

func newCalibration() *calibration {
	c := &calibration{table: make([]uint64, 1<<13)} // 64 KB
	for i := range c.table {
		c.table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return c
}

// kernel is the fixed work: integer arithmetic, branches and loads from
// the 64 KB table.
func (c *calibration) kernel() {
	x := uint64(0x2545f4914f6cdd1d)
	mask := uint64(len(c.table) - 1)
	var acc uint64
	for i := 0; i < 60_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := c.table[(x>>29)&mask]
		if v&1 == 0 {
			acc += v >> 3
		} else {
			acc ^= v << 1
		}
	}
	c.sink.Add(acc)
}

// sample runs the kernel once on the calling goroutine and records its
// duration: the speed estimate for a serial operation.
func (c *calibration) sample() {
	t0 := time.Now()
	c.kernel()
	c.samples = append(c.samples, ms(time.Since(t0)))
	c.wide = append(c.wide, false)
}

// sampleWide runs one kernel per CPU concurrently and records the
// makespan: the speed estimate for a morsel-parallel operation, which
// waits for its slowest worker. The host's CPUs change speed independently,
// so a serial sample does not predict it.
func (c *calibration) sampleWide() {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.kernel()
		}()
	}
	wg.Wait()
	c.samples = append(c.samples, ms(time.Since(t0)))
	c.wide = append(c.wide, true)
}

// factors returns, per recorded sample, the rescaling factor refKernelMs /
// (median of the calWindow samples of the same kind centred on it).
func (c *calibration) factors() []float64 {
	out := make([]float64, len(c.samples))
	for _, wide := range []bool{false, true} {
		var idx []int
		var xs []float64
		for i, w := range c.wide {
			if w == wide {
				idx = append(idx, i)
				xs = append(xs, c.samples[i])
			}
		}
		for k, i := range idx {
			lo, hi := max(0, k-calWindow/2), min(len(xs), k+calWindow/2+1)
			out[i] = refKernelMs / median(xs[lo:hi])
		}
	}
	return out
}
