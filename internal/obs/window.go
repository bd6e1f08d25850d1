package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Sliding-window telemetry: the time dimension of the observability stack.
// The metrics Registry answers "how much since process start?" and the
// StatStore "how much per statement?"; Windows answers "how is the system
// doing *right now* and over the last N seconds?" — the signal a serving
// layer gates on and ReProVide-style feedback loops consume.
//
// The aggregator is a fixed ring of per-second buckets, lock-striped so
// concurrent query paths (PAR morsel roots, many sessions) never contend on
// one mutex: each Record picks a stripe round-robin, takes that stripe's
// lock, and folds into the stripe's own ring. Snapshots merge the stripes.
// Buckets are fixed-size arrays — recording allocates nothing, and a
// disabled (or nil) Windows reduces Record to one atomic load, the same
// off-path contract the Registry and StatStore keep.

// windowStripes is the number of independently locked rings. Eight stripes
// keep the hottest realistic publish rates (thousands of QPS across a
// worker pool) essentially contention-free while the merge cost at
// snapshot time stays trivial.
const windowStripes = 8

// defaultBounds is the shared latency bucket layout, identical to every
// registry Histogram so windowed quantiles and lifetime quantiles are
// computed over the same grid.
var defaultBounds = DefaultBuckets()

// latBuckets is len(defaultBounds)+1: one overflow bucket past the last
// bound, mirroring Histogram.
const latBuckets = 16

func init() {
	if len(defaultBounds)+1 != latBuckets {
		panic("obs: latBuckets out of sync with DefaultBuckets")
	}
}

// WindowSample is one finished query's contribution to the rolling window.
type WindowSample struct {
	// Err marks a failed execution; failed runs contribute to the error
	// rate but not to the latency or byte series.
	Err bool
	// Cycles is the run's modeled total (Breakdown.TotalCycles).
	Cycles uint64
	// WallNanos is the real wall-clock duration of the run.
	WallNanos int64
	// AllocBytes is the heap allocated during the run (process-wide delta;
	// noisy under concurrency, but the trend is the signal).
	AllocBytes uint64
	// BytesDRAM / BytesCPU are the run's Breakdown byte movements.
	BytesDRAM uint64
	BytesCPU  uint64
	// CacheLoads / CacheMisses are the hierarchy's demand loads and DRAM
	// fills during the run, for the windowed miss ratio.
	CacheLoads  uint64
	CacheMisses uint64
	// GroupHits / GroupMisses are the fabric group cache's lookups during
	// the run (zero when the cache is off), for the windowed hit ratio.
	GroupHits   uint64
	GroupMisses uint64
}

// windowBucket accumulates one second of samples. Fixed-size on purpose:
// folding a sample into it allocates nothing.
type windowBucket struct {
	sec         int64 // unix second this bucket holds; 0 = never used
	queries     uint64
	errors      uint64
	cycles      uint64
	wallNanos   int64
	allocBytes  uint64
	bytesDRAM   uint64
	bytesCPU    uint64
	cacheLoads  uint64
	cacheMisses uint64
	groupHits   uint64
	groupMisses uint64
	lat         [latBuckets]uint64 // modeled-cycle histogram, defaultBounds grid
}

// add folds one sample (successful or not) into the bucket.
func (b *windowBucket) add(s *WindowSample) {
	b.queries++
	if s.Err {
		b.errors++
		return
	}
	b.cycles += s.Cycles
	b.wallNanos += s.WallNanos
	b.allocBytes += s.AllocBytes
	b.bytesDRAM += s.BytesDRAM
	b.bytesCPU += s.BytesCPU
	b.cacheLoads += s.CacheLoads
	b.cacheMisses += s.CacheMisses
	b.groupHits += s.GroupHits
	b.groupMisses += s.GroupMisses
	b.lat[bucketIndex(defaultBounds, float64(s.Cycles))]++
}

// merge folds another bucket's counts into this one (snapshot-side only).
func (b *windowBucket) merge(o *windowBucket) {
	b.queries += o.queries
	b.errors += o.errors
	b.cycles += o.cycles
	b.wallNanos += o.wallNanos
	b.allocBytes += o.allocBytes
	b.bytesDRAM += o.bytesDRAM
	b.bytesCPU += o.bytesCPU
	b.cacheLoads += o.cacheLoads
	b.cacheMisses += o.cacheMisses
	b.groupHits += o.groupHits
	b.groupMisses += o.groupMisses
	for i := range b.lat {
		b.lat[i] += o.lat[i]
	}
}

// windowStripe is one independently locked ring of per-second buckets.
type windowStripe struct {
	mu      sync.Mutex
	buckets []windowBucket
}

// Windows is the lock-striped sliding-window aggregator. Construct with
// NewWindows (wall clock) or NewWindowsAt (injected clock, for tests and
// deterministic harnesses), attach with DB.SetWindows, and read through
// Snapshot / Series / WriteJSON or the /debug/windows.json handler.
type Windows struct {
	disabled atomic.Bool
	seconds  int
	now      func() int64 // nanosecond clock
	next     atomic.Uint64
	stripes  [windowStripes]windowStripe
}

// NewWindows builds an aggregator retaining the last seconds seconds
// (minimum 2) on the wall clock.
func NewWindows(seconds int) *Windows {
	return NewWindowsAt(seconds, func() int64 { return time.Now().UnixNano() })
}

// NewWindowsAt is NewWindows with an injected nanosecond clock, the hook
// deterministic tests drive time through.
func NewWindowsAt(seconds int, now func() int64) *Windows {
	if seconds < 2 {
		seconds = 2
	}
	w := &Windows{seconds: seconds, now: now}
	for i := range w.stripes {
		w.stripes[i].buckets = make([]windowBucket, seconds)
	}
	return w
}

// SetDisabled toggles recording. Snapshots still render whatever was
// recorded while enabled.
func (w *Windows) SetDisabled(d bool) {
	if w == nil {
		return
	}
	w.disabled.Store(d)
}

// Enabled reports whether this aggregator accepts samples — the single
// check the query path makes before spending anything on capture. A nil
// Windows reports false, so "not attached" and "disabled" share one test.
func (w *Windows) Enabled() bool { return w != nil && !w.disabled.Load() }

// Seconds returns the ring capacity in seconds.
func (w *Windows) Seconds() int {
	if w == nil {
		return 0
	}
	return w.seconds
}

// Record folds one query execution into the current second's bucket.
// Safe for concurrent use; allocates nothing; a nil or disabled receiver
// costs one atomic load.
func (w *Windows) Record(s WindowSample) {
	if w == nil || w.disabled.Load() {
		return
	}
	sec := w.now() / 1e9
	st := &w.stripes[w.next.Add(1)%windowStripes]
	st.mu.Lock()
	b := &st.buckets[int(sec%int64(w.seconds))]
	if b.sec != sec {
		*b = windowBucket{sec: sec}
	}
	b.add(&s)
	st.mu.Unlock()
}

// WindowSnapshot is the merged view over the trailing window: the health
// scoreboard one poll of /debug/windows.json returns.
type WindowSnapshot struct {
	WindowSeconds int    `json:"window_seconds"`
	Queries       uint64 `json:"queries"`
	Errors        uint64 `json:"errors"`

	QPS       float64 `json:"qps"`
	ErrorRate float64 `json:"error_rate"`

	P50Cycles  float64 `json:"p50_cycles"`
	P95Cycles  float64 `json:"p95_cycles"`
	P99Cycles  float64 `json:"p99_cycles"`
	MeanCycles float64 `json:"mean_cycles"`

	CyclesPerSec    float64 `json:"cycles_per_sec"`
	DRAMBytesPerSec float64 `json:"dram_bytes_per_sec"`
	CPUBytesPerSec  float64 `json:"cpu_bytes_per_sec"`
	CacheMissRatio  float64 `json:"cache_miss_ratio"`

	// Group-cache traffic in the window (zero when the cache is off).
	GroupHits     uint64  `json:"group_hits,omitempty"`
	GroupMisses   uint64  `json:"group_misses,omitempty"`
	GroupHitRatio float64 `json:"group_hit_ratio,omitempty"`

	MeanWallNanos  float64 `json:"mean_wall_ns"`
	MeanAllocBytes float64 `json:"mean_alloc_bytes"`
}

// Snapshot merges the trailing windowSeconds seconds (clamped to the ring)
// ending at the current clock second into one scoreboard.
func (w *Windows) Snapshot(windowSeconds int) WindowSnapshot {
	if w == nil {
		return WindowSnapshot{}
	}
	if windowSeconds <= 0 || windowSeconds > w.seconds {
		windowSeconds = w.seconds
	}
	nowSec := w.now() / 1e9
	lo := nowSec - int64(windowSeconds) + 1 // inclusive: the window ends at the current second
	var m windowBucket
	for i := range w.stripes {
		st := &w.stripes[i]
		st.mu.Lock()
		for j := range st.buckets {
			if b := &st.buckets[j]; b.sec >= lo && b.sec <= nowSec {
				m.merge(b)
			}
		}
		st.mu.Unlock()
	}

	snap := WindowSnapshot{
		WindowSeconds: windowSeconds,
		Queries:       m.queries,
		Errors:        m.errors,
		QPS:           float64(m.queries) / float64(windowSeconds),
	}
	if m.queries > 0 {
		snap.ErrorRate = float64(m.errors) / float64(m.queries)
	}
	okQ := m.queries - m.errors
	if okQ > 0 {
		snap.MeanCycles = float64(m.cycles) / float64(okQ)
		snap.MeanWallNanos = float64(m.wallNanos) / float64(okQ)
		snap.MeanAllocBytes = float64(m.allocBytes) / float64(okQ)
	}
	snap.CyclesPerSec = float64(m.cycles) / float64(windowSeconds)
	snap.DRAMBytesPerSec = float64(m.bytesDRAM) / float64(windowSeconds)
	snap.CPUBytesPerSec = float64(m.bytesCPU) / float64(windowSeconds)
	if m.cacheLoads > 0 {
		snap.CacheMissRatio = float64(m.cacheMisses) / float64(m.cacheLoads)
	}
	snap.GroupHits, snap.GroupMisses = m.groupHits, m.groupMisses
	if lookups := m.groupHits + m.groupMisses; lookups > 0 {
		snap.GroupHitRatio = float64(m.groupHits) / float64(lookups)
	}
	var count uint64
	for _, n := range m.lat {
		count += n
	}
	snap.P50Cycles = bucketQuantile(defaultBounds, m.lat[:], count, 0.50)
	snap.P95Cycles = bucketQuantile(defaultBounds, m.lat[:], count, 0.95)
	snap.P99Cycles = bucketQuantile(defaultBounds, m.lat[:], count, 0.99)
	return snap
}

// WindowPoint is one second of the per-second series, oldest first.
type WindowPoint struct {
	UnixSec     int64   `json:"sec"`
	Queries     uint64  `json:"queries"`
	Errors      uint64  `json:"errors,omitempty"`
	Cycles      uint64  `json:"cycles"`
	P99Cycles   float64 `json:"p99_cycles"`
	DRAMBytes   uint64  `json:"dram_bytes"`
	CPUBytes    uint64  `json:"cpu_bytes"`
	CacheLoads  uint64  `json:"cache_loads"`
	CacheMisses uint64  `json:"cache_misses"`
	GroupHits   uint64  `json:"group_hits,omitempty"`
	GroupMisses uint64  `json:"group_misses,omitempty"`
	WallNanos   int64   `json:"wall_ns"`
	AllocBytes  uint64  `json:"alloc_bytes"`
}

// Series returns the trailing windowSeconds seconds as per-second points,
// oldest first. Seconds with no samples are omitted — the dashboard fills
// the gaps, the wire format stays small.
func (w *Windows) Series(windowSeconds int) []WindowPoint {
	if w == nil {
		return nil
	}
	if windowSeconds <= 0 || windowSeconds > w.seconds {
		windowSeconds = w.seconds
	}
	nowSec := w.now() / 1e9
	lo := nowSec - int64(windowSeconds) + 1
	// Merge stripes second by second.
	merged := make(map[int64]*windowBucket, windowSeconds)
	for i := range w.stripes {
		st := &w.stripes[i]
		st.mu.Lock()
		for j := range st.buckets {
			b := &st.buckets[j]
			if b.sec < lo || b.sec > nowSec {
				continue
			}
			mb, ok := merged[b.sec]
			if !ok {
				mb = &windowBucket{sec: b.sec}
				merged[b.sec] = mb
			}
			mb.merge(b)
		}
		st.mu.Unlock()
	}
	out := make([]WindowPoint, 0, len(merged))
	for sec := lo; sec <= nowSec; sec++ {
		b, ok := merged[sec]
		if !ok {
			continue
		}
		var count uint64
		for _, n := range b.lat {
			count += n
		}
		out = append(out, WindowPoint{
			UnixSec:     b.sec,
			Queries:     b.queries,
			Errors:      b.errors,
			Cycles:      b.cycles,
			P99Cycles:   bucketQuantile(defaultBounds, b.lat[:], count, 0.99),
			DRAMBytes:   b.bytesDRAM,
			CPUBytes:    b.bytesCPU,
			CacheLoads:  b.cacheLoads,
			CacheMisses: b.cacheMisses,
			GroupHits:   b.groupHits,
			GroupMisses: b.groupMisses,
			WallNanos:   b.wallNanos,
			AllocBytes:  b.allocBytes,
		})
	}
	return out
}

// WindowsJSON is the /debug/windows.json document: the merged scoreboard
// plus the per-second series behind it (see EXPERIMENTS.md for the schema).
type WindowsJSON struct {
	NowUnix int64          `json:"now_unix"`
	Window  WindowSnapshot `json:"window"`
	Series  []WindowPoint  `json:"series"`
}

// WriteJSON renders the window document for the trailing windowSeconds.
func (w *Windows) WriteJSON(out io.Writer, windowSeconds int) error {
	doc := WindowsJSON{Window: w.Snapshot(windowSeconds)}
	if w != nil {
		doc.NowUnix = w.now() / 1e9
	}
	doc.Series = w.Series(windowSeconds)
	if doc.Series == nil {
		doc.Series = []WindowPoint{}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Handle mounts GET /debug/windows.json. The optional ?window=N query
// parameter narrows the merge window (default: the full ring).
func (w *Windows) Handle(mux *http.ServeMux) {
	mux.HandleFunc("/debug/windows.json", func(rw http.ResponseWriter, req *http.Request) {
		window := 0
		if v := req.URL.Query().Get("window"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				http.Error(rw, `{"error":"bad window parameter"}`, http.StatusBadRequest)
				return
			}
			window = n
		}
		rw.Header().Set("Content-Type", "application/json")
		w.WriteJSON(rw, window)
	})
}

// allocSamples pools the one-element runtime/metrics read buffers so
// HeapAllocBytes stays allocation-free on the steady path.
var allocSamples = sync.Pool{New: func() any {
	s := make([]metrics.Sample, 1)
	s[0].Name = "/gc/heap/allocs:bytes"
	return &s
}}

// HeapAllocBytes returns the process's cumulative heap allocation counter.
// Two reads bracketing a query give its allocation delta — process-wide,
// so concurrent work bleeds in, but cheap enough to sit on the query path
// (runtime/metrics, no stop-the-world).
func HeapAllocBytes() uint64 {
	sp := allocSamples.Get().(*[]metrics.Sample)
	metrics.Read(*sp)
	v := (*sp)[0].Value
	allocSamples.Put(sp)
	if v.Kind() != metrics.KindUint64 {
		return 0
	}
	return v.Uint64()
}
