package obs

import "testing"

// The observability layer's contract is that opting out costs (almost)
// nothing: a disabled registry reduces every publish to one atomic load, and
// nil *Tracer / *Timeline hooks no-op. These tests pin the allocation half
// of that contract; the benchmarks below put a number on the cycle half.

func TestDisabledRegistryPublishesDoNotAllocate(t *testing.T) {
	reg := NewRegistry()
	labels := Labels{"engine": "RM"}
	c := reg.Counter("rfabric_test_total", labels)
	g := reg.Gauge("rfabric_test_gauge", labels)
	h := reg.Histogram("rfabric_test_cycles", labels)
	reg.SetDisabled(true)

	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(42)
		h.Observe(1234)
	}); n != 0 {
		t.Errorf("disabled publishes allocate %.1f times per run, want 0", n)
	}
	if c.Value() != 0 || h.Count() != 0 {
		t.Errorf("disabled publishes still recorded: counter=%d histogram=%d", c.Value(), h.Count())
	}

	reg.SetDisabled(false)
	c.Add(1)
	h.Observe(1234)
	if c.Value() != 1 || h.Count() != 1 {
		t.Errorf("re-enabled publishes lost: counter=%d histogram=%d", c.Value(), h.Count())
	}
}

// TestPublishToExistingSeriesDoesNotAllocate pins the registry's lookup
// path: once a series exists, finding it by name and rendered label set and
// publishing into it formats, concatenates and allocates nothing.
func TestPublishToExistingSeriesDoesNotAllocate(t *testing.T) {
	reg := NewRegistry()
	ls := Labels{"engine": "RM", "table": "lineitem"}.Render()
	publish := func() {
		reg.CounterOf("rfabric_test_total", ls).Add(1)
		reg.GaugeOf("rfabric_test_gauge", ls).Set(42)
		reg.HistogramOf("rfabric_test_cycles", ls).Observe(1234)
	}
	publish()
	if n := testing.AllocsPerRun(100, publish); n != 0 {
		t.Errorf("publishing to existing series allocates %.1f times per run, want 0", n)
	}
	if got := reg.Counter("rfabric_test_total", Labels{"table": "lineitem", "engine": "RM"}).Value(); got != 102 {
		t.Errorf("counter = %d, want 102 (map and rendered lookups must reach one series)", got)
	}
}

func TestNilHooksDoNotAllocate(t *testing.T) {
	var tr *Tracer
	var tl *Timeline
	if n := testing.AllocsPerRun(100, func() {
		tr.Begin("span")
		tr.End()
		tr.Root()
		tr.Timeline()
		tl.DRAMAccess(3, 40, true)
		tl.CacheLoad(false)
		tl.FabricChunk(100, 20)
		tl.Tick(500)
		tl.Finish(1000)
	}); n != 0 {
		t.Errorf("nil tracer/timeline hooks allocate %.1f times per run, want 0", n)
	}
}

// TestDisabledStatStoreIsFree pins the statement-statistics off-switch: a
// disabled (or nil) StatStore must cost the query path one atomic load and
// zero allocations. The DB gates fingerprinting itself on Disabled(), so
// this is the whole per-query overhead when statistics are off.
func TestDisabledStatStoreIsFree(t *testing.T) {
	s := NewStatStore()
	s.SetDisabled(true)
	var nilStore *StatStore
	if n := testing.AllocsPerRun(100, func() {
		if !s.Disabled() {
			t.Fatal("fingerprinting gate open on disabled store")
		}
		if !nilStore.Disabled() {
			t.Fatal("fingerprinting gate open on nil store")
		}
		// Even a caller that skipped the gate must not allocate.
		s.Record(StatSample{Fingerprint: 1, Cycles: 100})
		nilStore.Record(StatSample{Fingerprint: 1, Cycles: 100})
	}); n != 0 {
		t.Errorf("disabled StatStore path allocates %.1f times per run, want 0", n)
	}
	if s.Len() != 0 {
		t.Errorf("disabled store recorded %d statements, want 0", s.Len())
	}

	s.SetDisabled(false)
	s.Record(StatSample{Fingerprint: 1, Text: "SELECT ?", Cycles: 100})
	if s.Len() != 1 {
		t.Errorf("re-enabled store lost the record: len=%d", s.Len())
	}
}

// TestDisabledWindowsIsFree pins the sliding-window off-switch: a nil or
// disabled Windows must cost the query path one atomic load and zero
// allocations — and an *enabled* Record must not allocate either, since it
// folds into fixed-size buckets.
func TestDisabledWindowsIsFree(t *testing.T) {
	w := NewWindows(10)
	w.SetDisabled(true)
	var nilW *Windows
	sample := WindowSample{Cycles: 1234, BytesDRAM: 64, CacheLoads: 10, CacheMisses: 1}
	if n := testing.AllocsPerRun(100, func() {
		if w.Enabled() || nilW.Enabled() {
			t.Fatal("capture gate open on disabled/nil Windows")
		}
		// Even a caller that skipped the gate must not allocate.
		w.Record(sample)
		nilW.Record(sample)
	}); n != 0 {
		t.Errorf("disabled Windows path allocates %.1f times per run, want 0", n)
	}
	if got := w.Snapshot(0).Queries; got != 0 {
		t.Errorf("disabled Windows recorded %d queries, want 0", got)
	}

	w.SetDisabled(false)
	if n := testing.AllocsPerRun(100, func() {
		w.Record(sample)
	}); n != 0 {
		t.Errorf("enabled Record allocates %.1f times per run, want 0", n)
	}
	if got := w.Snapshot(0).Queries; got == 0 {
		t.Error("re-enabled Windows lost its records")
	}
}

// TestHeapAllocBytesDoesNotAllocate pins the sampling primitive itself: the
// pooled runtime/metrics read must not allocate on the steady path, or the
// act of measuring per-query allocations would pollute the measurement.
func TestHeapAllocBytesDoesNotAllocate(t *testing.T) {
	HeapAllocBytes() // warm the pool
	if n := testing.AllocsPerRun(100, func() { HeapAllocBytes() }); n != 0 {
		t.Errorf("HeapAllocBytes allocates %.1f times per run, want 0", n)
	}
}

// BenchmarkDisabledWindowsRecord measures the per-query cost with windows
// attached but disabled: one atomic load.
func BenchmarkDisabledWindowsRecord(b *testing.B) {
	w := NewWindows(10)
	w.SetDisabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Record(WindowSample{Cycles: 1})
	}
}

// BenchmarkWindowsRecord measures the enabled per-query fold: stripe lock +
// bucket update, no allocation.
func BenchmarkWindowsRecord(b *testing.B) {
	w := NewWindows(60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Record(WindowSample{Cycles: uint64(i), BytesDRAM: 64})
	}
}

// BenchmarkDisabledCounterAdd measures the hot-path cost the engines pay
// per publish when a registry is attached but disabled: one atomic load.
func BenchmarkDisabledCounterAdd(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("rfabric_bench_total", nil)
	reg.SetDisabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkNilTimelineHook measures the per-access cost the DRAM model pays
// when no timeline is attached: one nil check.
func BenchmarkNilTimelineHook(b *testing.B) {
	var tl *Timeline
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tl.DRAMAccess(i&7, 40, i&1 == 0)
	}
}
