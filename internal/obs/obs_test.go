package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndLabels(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("rfabric_test_total", Labels{"engine": "RM", "table": "t"})
	b := reg.Counter("rfabric_test_total", Labels{"table": "t", "engine": "RM"})
	if a != b {
		t.Fatal("label order changed series identity")
	}
	c := reg.Counter("rfabric_test_total", Labels{"engine": "ROW", "table": "t"})
	if a == c {
		t.Fatal("different labels collapsed into one series")
	}
	a.Add(3)
	a.Add(4)
	c.Add(1)
	if a.Value() != 7 || c.Value() != 1 {
		t.Fatalf("counter values: %d, %d", a.Value(), c.Value())
	}
}

func TestDisabledRegistry(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rfabric_off_total", nil)
	h := reg.Histogram("rfabric_off_hist", nil)
	g := reg.Gauge("rfabric_off_gauge", nil)
	reg.SetDisabled(true)
	c.Add(5)
	h.Observe(100)
	g.Set(3.5)
	if c.Value() != 0 || h.Count() != 0 || g.Value() != 0 {
		t.Fatal("disabled registry still recorded")
	}
	reg.SetDisabled(false)
	c.Add(5)
	if c.Value() != 5 {
		t.Fatal("re-enabled registry did not record")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Begin("x")
	s.SetAttr("k", "v")
	s.Leaf("leaf", 1, 2)
	s.Adopt(&Span{})
	tr.End()
	if tr.Root() != nil || tr.Current() != nil || s.AttributedCycles() != 0 {
		t.Fatal("nil tracer/span did not no-op")
	}
	var c *Counter
	c.Add(1) // must not panic
	var h *Histogram
	h.Observe(1)
	var g *Gauge
	g.Set(1)
	var lt *LastTrace
	lt.Store(&Trace{})
	if lt.Load() != nil {
		t.Fatal("nil LastTrace returned a trace")
	}
}

func TestConcurrentPublish(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("rfabric_conc_total", Labels{"w": "x"}).Add(1)
				reg.Histogram("rfabric_conc_hist", nil).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("rfabric_conc_total", Labels{"w": "x"}).Value(); got != 8000 {
		t.Fatalf("concurrent adds lost updates: %d", got)
	}
	if got := reg.Histogram("rfabric_conc_hist", nil).Count(); got != 8000 {
		t.Fatalf("concurrent observes lost updates: %d", got)
	}
}

func TestPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rfabric_dram_bytes_read_total", Labels{"component": "dram"}).Add(4096)
	reg.Gauge("rfabric_cache_miss_ratio", Labels{"engine": "RM"}).Set(0.25)
	reg.Histogram("rfabric_query_cycles", Labels{"engine": "RM"}).Observe(1000)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rfabric_dram_bytes_read_total counter",
		`rfabric_dram_bytes_read_total{component="dram"} 4096`,
		`rfabric_cache_miss_ratio{engine="RM"} 0.25`,
		`rfabric_query_cycles_bucket{engine="RM",le="1024"} 1`,
		`rfabric_query_cycles_bucket{engine="RM",le="+Inf"} 1`,
		`rfabric_query_cycles_sum{engine="RM"} 1000`,
		`rfabric_query_cycles_count{engine="RM"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

func TestJSONExportParses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rfabric_x_total", Labels{"a": "b"}).Add(1)
	reg.Histogram("rfabric_x_hist", nil).Observe(10)
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out ExportJSON
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("JSON export does not parse: %v", err)
	}
	if len(out.Counters) != 1 || len(out.Histograms) != 1 {
		t.Fatalf("unexpected export shape: %+v", out)
	}
}

func TestSpanAttribution(t *testing.T) {
	tr := NewTracer("query")
	exec := tr.Begin("execute")
	exec.Leaf("compute", 100, 0)
	exec.Leaf("memory", 50, 4096)
	detail := exec.AddChild("morsels")
	detail.Detail = true
	detail.Leaf("morsel[0]", 999, 999) // overlapped time: excluded
	tr.End()
	if got := tr.Root().AttributedCycles(); got != 150 {
		t.Fatalf("attributed cycles = %d, want 150", got)
	}
	if got := tr.Root().AttributedBytes(); got != 4096 {
		t.Fatalf("attributed bytes = %d, want 4096", got)
	}
	if tr.Root().Find("morsel[0]") == nil {
		t.Fatal("Find missed a detail leaf")
	}
	if tr.Current() != tr.Root() {
		t.Fatal("End did not pop back to root")
	}
}

func TestTraceRenderAndJSON(t *testing.T) {
	tr := NewTracer("query")
	sp := tr.Begin("rm.execute")
	sp.SetAttr("table", "lineitem")
	sp.Leaf("pipeline", 1234, 512)
	tr.End()
	trace := &Trace{Query: "SELECT ...", Engine: "RM", TotalCycles: 1234, Root: tr.Root()}
	var b strings.Builder
	trace.Render(&b)
	out := b.String()
	for _, want := range []string{"rm.execute", "table=lineitem", "pipeline", "cycles=1234"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	raw, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Root.AttributedCycles() != 1234 {
		t.Fatal("trace did not round-trip through JSON")
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rfabric_served_total", nil).Add(9)
	last := &LastTrace{}
	mux := NewMux(reg, last.Load)

	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "rfabric_served_total 9") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, _ := get("/debug/trace/last"); code != 404 {
		t.Fatalf("/debug/trace/last before any trace: code=%d, want 404", code)
	}
	last.Store(&Trace{Engine: "RM", TotalCycles: 7, Root: &Span{Name: "query"}})
	code, body := get("/debug/trace/last")
	if code != 200 {
		t.Fatalf("/debug/trace/last: code=%d", code)
	}
	var tr Trace
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("trace endpoint not JSON: %v", err)
	}
	if tr.TotalCycles != 7 {
		t.Fatalf("trace endpoint returned %+v", tr)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, "rfabric_served_total") {
		t.Fatalf("/metrics.json: code=%d body=%q", code, body)
	}
}
