package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metric series. Handles returned by Counter, Gauge,
// and Histogram are stable for the registry's lifetime, so hot paths fetch
// them once and publish through atomics; the registry lock is only taken on
// first registration and on export. Series are keyed by name and rendered
// label set, so a publisher that renders its labels once (Labels.Render)
// finds an existing series without formatting or concatenating anything. A
// disabled registry makes every publish a no-op (one atomic load), the
// opt-out the deterministic experiment harnesses rely on.
type Registry struct {
	mu       sync.RWMutex
	counters map[seriesKey]*Counter
	gauges   map[seriesKey]*Gauge
	hists    map[seriesKey]*Histogram
	disabled atomic.Bool
}

// seriesKey identifies one series: its name and rendered label set.
type seriesKey struct {
	name   string
	labels LabelSet
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[seriesKey]*Counter{},
		gauges:   map[seriesKey]*Gauge{},
		hists:    map[seriesKey]*Histogram{},
	}
}

// SetDisabled toggles publishing. Export still renders whatever was
// recorded while enabled.
func (r *Registry) SetDisabled(d bool) { r.disabled.Store(d) }

// Disabled reports whether publishing is off.
func (r *Registry) Disabled() bool { return r.disabled.Load() }

// series returns the entry for k in m, creating it with mk on first use.
func series[T any](r *Registry, m map[seriesKey]*T, k seriesKey, mk func() *T) *T {
	r.mu.RLock()
	v, ok := m[k]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[k]; !ok {
		v = mk()
		m[k] = v
	}
	return v
}

// Counter returns (registering on first use) the counter series name+labels.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return r.CounterOf(name, labels.Render())
}

// CounterOf is Counter over an already rendered label set.
func (r *Registry) CounterOf(name string, ls LabelSet) *Counter {
	return series(r, r.counters, seriesKey{name, ls}, func() *Counter {
		return &Counter{name: name, labels: string(ls), disabled: &r.disabled}
	})
}

// Gauge returns (registering on first use) the gauge series name+labels.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return r.GaugeOf(name, labels.Render())
}

// GaugeOf is Gauge over an already rendered label set.
func (r *Registry) GaugeOf(name string, ls LabelSet) *Gauge {
	return series(r, r.gauges, seriesKey{name, ls}, func() *Gauge {
		return &Gauge{name: name, labels: string(ls), disabled: &r.disabled}
	})
}

// Histogram returns (registering on first use) the histogram series
// name+labels, bucketed by DefaultBuckets.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	return r.HistogramOf(name, labels.Render())
}

// HistogramOf is Histogram over an already rendered label set.
func (r *Registry) HistogramOf(name string, ls LabelSet) *Histogram {
	return series(r, r.hists, seriesKey{name, ls}, func() *Histogram {
		return &Histogram{
			name:     name,
			labels:   string(ls),
			bounds:   DefaultBuckets(),
			buckets:  make([]uint64, len(DefaultBuckets())+1),
			disabled: &r.disabled,
		}
	})
}

// snapshot returns sorted copies of every series for the exporters.
func (r *Registry) snapshot() (cs []*Counter, gs []*Gauge, hs []*Histogram) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		cs = append(cs, c)
	}
	for _, g := range r.gauges {
		gs = append(gs, g)
	}
	for _, h := range r.hists {
		hs = append(hs, h)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].name+cs[i].labels < cs[j].name+cs[j].labels })
	sort.Slice(gs, func(i, j int) bool { return gs[i].name+gs[i].labels < gs[j].name+gs[j].labels })
	sort.Slice(hs, func(i, j int) bool { return hs[i].name+hs[i].labels < hs[j].name+hs[j].labels })
	return cs, gs, hs
}

// Counter is a monotonically increasing series.
type Counter struct {
	name     string
	labels   string
	v        atomic.Uint64
	disabled *atomic.Bool
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil || c.disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time value series.
type Gauge struct {
	name     string
	labels   string
	bits     atomic.Uint64
	disabled *atomic.Bool
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil || g.disabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultBuckets returns the exponential bucket bounds shared by every
// histogram: powers of four from 256 up to ~6.9e10, a range that covers
// modeled cycle counts from a single cache hit to a paper-scale TPC-H scan.
func DefaultBuckets() []float64 {
	out := make([]float64, 0, 14)
	for b := 256.0; b < 1e11; b *= 4 {
		out = append(out, b)
	}
	return out
}

// Histogram is a fixed-bucket distribution series (cumulative buckets in
// the Prometheus sense are computed at export time).
type Histogram struct {
	name     string
	labels   string
	disabled *atomic.Bool

	mu      sync.Mutex
	bounds  []float64
	buckets []uint64 // len(bounds)+1; last is the +Inf overflow
	count   uint64
	sum     float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.disabled.Load() {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketIndex(h.bounds, v)]++
	h.count++
	h.sum += v
}

// bucketIndex returns the bucket a sample lands in: the first bound >= v,
// or the overflow slot past the last bound. Shared by Histogram and the
// sliding-window buckets so both count on the same grid.
func bucketIndex(bounds []float64, v float64) int {
	return sort.SearchFloat64s(bounds, v)
}

// Count returns how many samples were observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the bucket holding the target rank, the same
// estimate Prometheus's histogram_quantile computes. Samples landing in
// the +Inf overflow bucket clamp to the last finite bound. Returns 0 when
// the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return bucketQuantile(h.bounds, h.buckets, h.count, q)
}

// bucketQuantile is the quantile estimate over one bucket layout — the
// single implementation Histogram.Quantile and the sliding-window merges
// share, so a windowed p99 agrees exactly with a Histogram fed the same
// samples.
func bucketQuantile(bounds []float64, buckets []uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	var cum float64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next < rank {
			cum = next
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: no upper bound to interpolate toward.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		return lo + (hi-lo)*((rank-cum)/float64(n))
	}
	return bounds[len(bounds)-1]
}
