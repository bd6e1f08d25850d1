package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"rfabric"
	"rfabric/internal/obs"
	"rfabric/internal/tpch"
)

// serveWindowSeconds is the sliding-window ring the server retains: two
// minutes of per-second buckets.
const serveWindowSeconds = 120

// serve hosts the live observability surface over a demo database: a TPC-H
// lineitem table on the default simulated platform, with a metrics registry,
// sliding-window telemetry, statement statistics, and a slow-query log
// attached, and one traced Q6 already run so every scrape is populated from
// the start.
//
//	GET /metrics                 — Prometheus text exposition
//	GET /metrics.json            — the same registry as JSON
//	GET /debug/windows.json      — rolling-window scoreboard + per-second
//	                               series (?window=N narrows the merge)
//	GET /debug/trace/last        — most recent query trace (span tree) as JSON
//	GET /debug/trace/last.chrome — same trace as Chrome Trace Event JSON
//	                               (open it in ui.perfetto.dev)
//	GET /debug/statements        — per-statement statistics (pg_stat_statements
//	                               style), JSON; .prom for Prometheus text
//	GET /debug/slowlog           — recent slow queries with full traces
//	GET /query?q=SQL             — run a traced query; returns result + trace
//
// slowCycles arms the slow-query log (0 disables).
func serve(addr string, rows int, seed int64, slowCycles uint64) error {
	mux, err := setupServe(rows, seed, slowCycles, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rfbench: serving /metrics, /metrics.json, /debug/windows.json, /debug/trace/last, /debug/statements, /debug/slowlog, /query on %s\n", addr)
	return http.ListenAndServe(addr, mux)
}

// setupServe builds the demo database and the full observability mux —
// everything serve hosts, minus the listener, so tests drive it through
// httptest.
func setupServe(rows int, seed int64, slowCycles uint64, logw io.Writer) (*http.ServeMux, error) {
	db, err := rfabric.Open(rfabric.DefaultConfig())
	if err != nil {
		return nil, err
	}
	tbl, err := db.CreateTable("lineitem", tpch.LineitemSchema(), rows)
	if err != nil {
		return nil, err
	}
	if err := tpch.Generate(tbl, rows, seed); err != nil {
		return nil, err
	}
	db.SetGroupCache(rfabric.DefaultGroupCacheConfig())
	reg := rfabric.NewRegistry()
	db.SetObserver(reg)
	stats := obs.NewStatStore()
	db.SetStatements(stats)
	if slowCycles > 0 {
		db.SetSlowThreshold(slowCycles)
	}
	win := rfabric.NewWindows(serveWindowSeconds)
	db.SetWindows(win)

	var last obs.LastTrace
	var mu sync.Mutex // the DB façade is single-threaded; serialize queries

	res, trace, err := db.QueryTraced(tpch.Q6SQL, rfabric.OnEngine(rfabric.RM), rfabric.WithTimeline(0))
	if err != nil {
		return nil, fmt.Errorf("warmup Q6: %w", err)
	}
	last.Store(trace)
	fmt.Fprintf(logw, "rfbench: loaded lineitem (%d rows); warmup Q6 took %d modeled cycles\n",
		rows, res.Breakdown.TotalCycles)

	mux := obs.NewMux(reg, &last)
	stats.Handle(mux)
	db.SlowLog().Handle(mux)
	win.Handle(mux)
	mux.HandleFunc("/query", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query().Get("q")
		if q == "" {
			http.Error(w, `{"error":"missing q parameter"}`, http.StatusBadRequest)
			return
		}
		mu.Lock()
		res, trace, err := db.QueryTraced(q, rfabric.WithTimeline(0))
		mu.Unlock()
		if err != nil {
			http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
			return
		}
		last.Store(trace)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"result": res, "trace": trace})
	})
	return mux, nil
}
