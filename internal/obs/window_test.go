package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// fakeClock is a hand-advanced nanosecond clock for deterministic Windows
// tests.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func newFakeClock(startSec int64) *fakeClock { return &fakeClock{ns: startSec * 1e9} }

func (c *fakeClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *fakeClock) AdvanceSec(s int64) {
	c.mu.Lock()
	c.ns += s * 1e9
	c.mu.Unlock()
}

func TestWindowsSnapshotCountsAndRates(t *testing.T) {
	clk := newFakeClock(1000)
	w := NewWindowsAt(60, clk.Now)

	// Second 1000: 4 ok, 1 error.
	for i := 0; i < 3; i++ {
		w.Record(WindowSample{Cycles: 50_000, WallNanos: 1000, AllocBytes: 64,
			BytesDRAM: 4096, BytesCPU: 1024, CacheLoads: 100, CacheMisses: 10})
	}
	w.Record(WindowSample{Cycles: 2_000_000, WallNanos: 9000, AllocBytes: 640,
		BytesDRAM: 8192, BytesCPU: 2048, CacheLoads: 200, CacheMisses: 50})
	w.Record(WindowSample{Err: true})

	clk.AdvanceSec(1) // second 1001: 1 ok
	w.Record(WindowSample{Cycles: 50_000, CacheLoads: 100, CacheMisses: 10})

	snap := w.Snapshot(10)
	if snap.WindowSeconds != 10 {
		t.Fatalf("WindowSeconds = %d, want 10", snap.WindowSeconds)
	}
	if snap.Queries != 6 || snap.Errors != 1 {
		t.Fatalf("queries/errors = %d/%d, want 6/1", snap.Queries, snap.Errors)
	}
	if got, want := snap.QPS, 0.6; got != want {
		t.Fatalf("QPS = %g, want %g", got, want)
	}
	if got, want := snap.ErrorRate, 1.0/6; got != want {
		t.Fatalf("ErrorRate = %g, want %g", got, want)
	}
	wantMean := float64(3*50_000+2_000_000+50_000) / 5
	if snap.MeanCycles != wantMean {
		t.Fatalf("MeanCycles = %g, want %g", snap.MeanCycles, wantMean)
	}
	if got, want := snap.MeanWallNanos, float64(3*1000+9000)/5; got != want {
		t.Fatalf("MeanWallNanos = %g, want %g", got, want)
	}
	if got, want := snap.MeanAllocBytes, float64(3*64+640)/5; got != want {
		t.Fatalf("MeanAllocBytes = %g, want %g", got, want)
	}
	if got, want := snap.DRAMBytesPerSec, float64(3*4096+8192)/10; got != want {
		t.Fatalf("DRAMBytesPerSec = %g, want %g", got, want)
	}
	if got, want := snap.CacheMissRatio, float64(10*3+50+10)/float64(100*3+200+100); got != want {
		t.Fatalf("CacheMissRatio = %g, want %g", got, want)
	}
}

// TestWindowedQuantileMatchesHistogram is the acceptance check: the windowed
// p50/p95/p99 must agree exactly with Histogram.Quantile over the same
// samples — both sides share the bucket grid and the interpolation.
func TestWindowedQuantileMatchesHistogram(t *testing.T) {
	clk := newFakeClock(5000)
	w := NewWindowsAt(30, clk.Now)
	reg := NewRegistry()
	h := reg.Histogram("cmp_cycles", nil)

	cycles := []uint64{100, 900, 5_000, 5_000, 60_000, 250_000, 1_100_000,
		4_000_000, 4_100_000, 17_000_000, 65_000_000, 300_000_000, 1_200_000_000,
		5_000_000_000, 20_000_000_000, 90_000_000_000}
	for i, c := range cycles {
		w.Record(WindowSample{Cycles: c})
		h.Observe(float64(c))
		if i%4 == 3 {
			clk.AdvanceSec(1) // spread across seconds to exercise the merge
		}
	}
	snap := w.Snapshot(30)
	for _, q := range []struct {
		q    float64
		got  float64
		name string
	}{
		{0.50, snap.P50Cycles, "p50"},
		{0.95, snap.P95Cycles, "p95"},
		{0.99, snap.P99Cycles, "p99"},
	} {
		if want := h.Quantile(q.q); q.got != want {
			t.Fatalf("windowed %s = %g, Histogram.Quantile = %g — must match exactly", q.name, q.got, want)
		}
	}
}

func TestWindowsEviction(t *testing.T) {
	clk := newFakeClock(2000)
	w := NewWindowsAt(5, clk.Now)
	w.Record(WindowSample{Cycles: 1000})
	if got := w.Snapshot(0).Queries; got != 1 {
		t.Fatalf("fresh sample: queries = %d, want 1", got)
	}
	// Advance past the ring span: the old second evicts even though its slot
	// was never overwritten.
	clk.AdvanceSec(6)
	if got := w.Snapshot(0).Queries; got != 0 {
		t.Fatalf("after eviction: queries = %d, want 0", got)
	}
	// A narrow window excludes in-ring but out-of-window seconds.
	w.Record(WindowSample{Cycles: 1000})
	clk.AdvanceSec(2)
	w.Record(WindowSample{Cycles: 2000})
	if got := w.Snapshot(2).Queries; got != 1 {
		t.Fatalf("narrow window: queries = %d, want 1", got)
	}
	if got := w.Snapshot(5).Queries; got != 2 {
		t.Fatalf("full window: queries = %d, want 2", got)
	}
}

func TestWindowsSeries(t *testing.T) {
	clk := newFakeClock(3000)
	w := NewWindowsAt(30, clk.Now)
	w.Record(WindowSample{Cycles: 1000, BytesDRAM: 10})
	w.Record(WindowSample{Err: true})
	clk.AdvanceSec(2) // leave a one-second gap
	w.Record(WindowSample{Cycles: 3000, BytesDRAM: 30})

	pts := w.Series(10)
	if len(pts) != 2 {
		t.Fatalf("series has %d points, want 2 (gap seconds omitted): %+v", len(pts), pts)
	}
	if pts[0].UnixSec != 3000 || pts[0].Queries != 2 || pts[0].Errors != 1 || pts[0].Cycles != 1000 {
		t.Fatalf("first point = %+v", pts[0])
	}
	if pts[1].UnixSec != 3002 || pts[1].Queries != 1 || pts[1].DRAMBytes != 30 {
		t.Fatalf("second point = %+v", pts[1])
	}
}

func TestWindowsDisabledAndNil(t *testing.T) {
	var nilW *Windows
	if nilW.Enabled() {
		t.Fatal("nil Windows reports enabled")
	}
	nilW.Record(WindowSample{Cycles: 1}) // must not panic
	nilW.SetDisabled(true)
	if s := nilW.Snapshot(10); s.Queries != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if pts := nilW.Series(10); pts != nil {
		t.Fatalf("nil series = %+v", pts)
	}

	clk := newFakeClock(100)
	w := NewWindowsAt(10, clk.Now)
	w.SetDisabled(true)
	if w.Enabled() {
		t.Fatal("disabled Windows reports enabled")
	}
	w.Record(WindowSample{Cycles: 1})
	if got := w.Snapshot(0).Queries; got != 0 {
		t.Fatalf("disabled Record still counted: %d", got)
	}
	w.SetDisabled(false)
	w.Record(WindowSample{Cycles: 1})
	if got := w.Snapshot(0).Queries; got != 1 {
		t.Fatalf("re-enabled Record lost: %d", got)
	}
}

func TestWindowsConcurrentRecord(t *testing.T) {
	clk := newFakeClock(7000)
	w := NewWindowsAt(10, clk.Now)
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Record(WindowSample{Cycles: 1000, BytesDRAM: 8})
			}
		}()
	}
	wg.Wait()
	snap := w.Snapshot(0)
	if snap.Queries != goroutines*per {
		t.Fatalf("queries = %d, want %d", snap.Queries, goroutines*per)
	}
	if got, want := snap.DRAMBytesPerSec*float64(snap.WindowSeconds), float64(goroutines*per*8); got != want {
		t.Fatalf("dram bytes = %g, want %g", got, want)
	}
}

func TestWindowsHandle(t *testing.T) {
	clk := newFakeClock(9000)
	w := NewWindowsAt(60, clk.Now)
	w.Record(WindowSample{Cycles: 4000})
	mux := http.NewServeMux()
	w.Handle(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	code, body := get("/debug/windows.json")
	if code != http.StatusOK {
		t.Fatalf("/debug/windows.json: HTTP %d", code)
	}
	var doc WindowsJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("windows.json not JSON: %v\n%s", err, body)
	}
	if doc.NowUnix != 9000 || doc.Window.Queries != 1 || len(doc.Series) != 1 {
		t.Fatalf("windows.json doc = %+v", doc)
	}

	code, body = get("/debug/windows.json?window=5")
	var narrow WindowsJSON
	if code != http.StatusOK || json.Unmarshal(body, &narrow) != nil {
		t.Fatalf("?window=5: HTTP %d body %s", code, body)
	}
	if narrow.Window.WindowSeconds != 5 {
		t.Fatalf("?window=5 snapshot window = %d", narrow.Window.WindowSeconds)
	}

	if code, _ := get("/debug/windows.json?window=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad window parameter: HTTP %d, want 400", code)
	}
}

// allocSink defeats dead-store elimination in TestHeapAllocBytesMonotonic.
var allocSink []byte

func TestHeapAllocBytesMonotonic(t *testing.T) {
	a := HeapAllocBytes()
	allocSink = make([]byte, 1<<20)
	b := HeapAllocBytes()
	if b < a {
		t.Fatalf("heap alloc counter went backwards: %d then %d", a, b)
	}
	if b == 0 {
		t.Fatal("heap alloc counter is zero")
	}
}
