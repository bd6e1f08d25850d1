package main

import (
	"bufio"
	"fmt"
	"math"
	"os/exec"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// heapCounters reads the process's cumulative heap allocation counters.
type heapCounters struct{ samples []metrics.Sample }

func newHeapCounters() *heapCounters {
	return &heapCounters{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// read returns cumulative (objects, bytes) allocated so far.
func (h *heapCounters) read() (uint64, uint64) {
	metrics.Read(h.samples)
	return h.samples[0].Value.Uint64(), h.samples[1].Value.Uint64()
}

// liveHeapBytes is the heap still reachable after the last GC cycle.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCPU reads the cumulative GC and total CPU-seconds the runtime accounts.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// cpuModules are the packages whose CPU-profile self time is reported as
// <module>.cpu_share. runtime also takes internal/runtime/*.
var cpuModules = []string{"cache", "dram", "fabric", "engine", "vec", "expr", "table", "sql", "obs", "colstore", "index", "runtime"}

// profileShares folds a CPU profile's flat (self) time by package with
// `go tool pprof -top` and returns each cpuModules entry's share of all
// samples, plus the sample count at the profiler's 100 Hz rate.
func profileShares(profile string) (map[string]float64, int, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	for _, m := range cpuModules {
		shares[m] = 0
	}
	samples := 0
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "Total samples = "); i >= 0 {
			f := strings.Fields(line[i+len("Total samples = "):])
			if len(f) > 0 {
				if d, err := time.ParseDuration(f[0]); err == nil {
					samples = int(d / (10 * time.Millisecond))
				}
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		if m := moduleOf(strings.Join(f[5:], " ")); m != "" {
			shares[m] += pct / 100
		}
	}
	return shares, samples, sc.Err()
}

// moduleOf maps a profiled function name to its cpuModules entry, or "".
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "rfabric/internal/"):
		name := strings.TrimPrefix(pkg, "rfabric/internal/")
		for _, m := range cpuModules {
			if m == name {
				return m
			}
		}
	}
	return ""
}
