package obs

import (
	"encoding/json"
	"net/http"
)

// NewMux builds the live-export HTTP surface:
//
//	GET /metrics                  — Prometheus text exposition of reg
//	GET /metrics.json             — JSON dump of reg
//	GET /debug/trace/last         — the most recent query trace as JSON
//	GET /debug/trace/last.chrome  — same trace in Chrome Trace Event
//	                                Format (open in ui.perfetto.dev)
//
// last returns the most recent trace (nil before the first), e.g. a
// LastTrace slot's Load or the DB façade's LastTrace. Both rfbench -serve
// and embedding applications mount it; tests drive it through
// net/http/httptest.
func NewMux(reg *Registry, last func() *Trace) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/trace/last", func(w http.ResponseWriter, req *http.Request) {
		t := last()
		if t == nil {
			http.Error(w, `{"error":"no trace recorded yet"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(t)
	})
	mux.HandleFunc("/debug/trace/last.chrome", func(w http.ResponseWriter, req *http.Request) {
		t := last()
		if t == nil {
			http.Error(w, `{"error":"no trace recorded yet"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.chrome.json"`)
		t.WriteChrome(w)
	})
	return mux
}
