package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// StatStore is the pg_stat_statements analogue: per-statement execution
// statistics keyed by normalized fingerprint (internal/sql.Fingerprint), so
// a dashboard workload whose literals shift query to query aggregates as one
// logical statement. Each entry accumulates call and error counts, modeled
// cycle and wall-clock latency histograms, rows returned and scanned, bytes
// moved per hierarchy level (DRAM-side and CPU-side), the engines the
// statement actually ran on, and the optimizer-accountability numbers — the
// cycle q-error and estimated-vs-observed selectivity — that the audit and
// dashboards read.
//
// Record takes one mutex per query (not per row), so the store is safe for
// concurrent publish and read. A disabled store reduces Record to a single
// atomic load, and callers are expected to gate fingerprinting itself on
// Disabled() — normalization allocates, and the off-path must not.
type StatStore struct {
	disabled atomic.Bool

	mu    sync.Mutex
	stmts map[uint64]*stmtStats
}

// stmtStats is one fingerprint's accumulation. Guarded by the store mutex.
type stmtStats struct {
	text        string
	calls       uint64
	errors      uint64
	slow        uint64
	totalCycles uint64
	allocBytes  uint64
	rowsRet     uint64
	rowsScan    uint64
	bytesDRAM   uint64
	bytesCPU    uint64
	engines     map[string]uint64
	cycles      *Histogram
	wall        *Histogram

	// Estimated-vs-actual accounting. qErr samples exist only for calls
	// that carried a priced estimate.
	qErrSamples uint64
	qErrSum     float64
	qErrMax     float64
	selSamples  uint64
	selEstSum   float64
	selActSum   float64
}

// NewStatStore returns an empty, enabled store.
func NewStatStore() *StatStore {
	return &StatStore{stmts: map[uint64]*stmtStats{}}
}

// SetDisabled toggles recording. Snapshot and the exporters still render
// whatever was recorded while enabled.
func (s *StatStore) SetDisabled(d bool) {
	if s == nil {
		return
	}
	s.disabled.Store(d)
}

// Disabled reports whether recording is off — the one-atomic-load check the
// query path makes before spending anything on fingerprinting. A nil store
// reports true, so "no store attached" and "store disabled" share one test.
func (s *StatStore) Disabled() bool { return s == nil || s.disabled.Load() }

// StatSample is one query execution's contribution to the store.
type StatSample struct {
	Fingerprint uint64
	Text        string // normalized statement text
	Engine      string // engine that actually ran (after AUTO/PAR routing)
	Err         bool
	Slow        bool
	Cycles      uint64
	WallNanos   int64
	AllocBytes  uint64 // heap allocated during the call (process-wide delta)
	RowsRet     int64
	RowsScan    int64
	BytesDRAM   uint64
	BytesCPU    uint64

	// EstCycles is the optimizer's priced cost for the engine that ran;
	// zero means no estimate accompanied this call.
	EstCycles float64
	// EstSelectivity / ActSelectivity are the assumed and observed
	// survivor fractions; both are recorded only when HasSel is set (a
	// zero observed selectivity is meaningful).
	HasSel         bool
	EstSelectivity float64
	ActSelectivity float64
}

// Record folds one execution into the statement's entry. Nil-safe and a
// no-op when disabled.
func (s *StatStore) Record(sm StatSample) {
	if s == nil || s.disabled.Load() {
		return
	}
	s.mu.Lock()
	st, ok := s.stmts[sm.Fingerprint]
	if !ok {
		st = &stmtStats{
			text:    sm.Text,
			engines: map[string]uint64{},
			cycles:  newStandaloneHistogram(&s.disabled),
			wall:    newStandaloneHistogram(&s.disabled),
		}
		s.stmts[sm.Fingerprint] = st
	}
	st.calls++
	if sm.Err {
		st.errors++
		s.mu.Unlock()
		return
	}
	if sm.Slow {
		st.slow++
	}
	st.totalCycles += sm.Cycles
	st.allocBytes += sm.AllocBytes
	st.rowsRet += uint64(sm.RowsRet)
	st.rowsScan += uint64(sm.RowsScan)
	st.bytesDRAM += sm.BytesDRAM
	st.bytesCPU += sm.BytesCPU
	if sm.Engine != "" {
		st.engines[sm.Engine]++
	}
	if sm.EstCycles > 0 && sm.Cycles > 0 {
		q := qError(sm.EstCycles, float64(sm.Cycles))
		st.qErrSamples++
		st.qErrSum += q
		if q > st.qErrMax {
			st.qErrMax = q
		}
	}
	if sm.HasSel {
		st.selSamples++
		st.selEstSum += sm.EstSelectivity
		st.selActSum += sm.ActSelectivity
	}
	cy, wl := st.cycles, st.wall
	s.mu.Unlock()
	// Histograms carry their own locks; observing outside the store mutex
	// keeps Record's critical section to the counter folds.
	cy.Observe(float64(sm.Cycles))
	if sm.WallNanos > 0 {
		wl.Observe(float64(sm.WallNanos))
	}
}

// qError is the symmetric misprediction factor max(est/act, act/est) ≥ 1,
// the standard cardinality-estimation accuracy measure.
func qError(est, act float64) float64 {
	if est <= 0 || act <= 0 {
		return 1
	}
	if est > act {
		return est / act
	}
	return act / est
}

// FeedbackSelectivity returns the mean observed selectivity recorded for a
// statement fingerprint. ok is false when the store is nil/disabled or no
// call for this fingerprint carried a selectivity observation. Only the
// frozen façade benchmark's shadow (hostbench) calls it, to set the inert
// Optimizer.SelOverride; ROADMAP item 4 removes that last caller.
func (s *StatStore) FeedbackSelectivity(fp uint64) (float64, bool) {
	if s == nil || s.disabled.Load() {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stmts[fp]
	if !ok || st.selSamples == 0 {
		return 0, false
	}
	sel := st.selActSum / float64(st.selSamples)
	// The optimizer treats a zero override as "no override"; floor the fed
	// value at the planner's own minimum selectivity instead.
	if sel < 0.005 {
		sel = 0.005
	}
	return sel, true
}

// Len returns the number of distinct statements recorded.
func (s *StatStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stmts)
}

// Reset drops every entry (the store stays enabled or disabled as it was).
func (s *StatStore) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stmts = map[uint64]*stmtStats{}
	s.mu.Unlock()
}

// StatementRecord is one statement's exported snapshot.
type StatementRecord struct {
	Fingerprint string            `json:"fingerprint"`
	Text        string            `json:"text"`
	Calls       uint64            `json:"calls"`
	Errors      uint64            `json:"errors,omitempty"`
	SlowCalls   uint64            `json:"slow_calls,omitempty"`
	TotalCycles uint64            `json:"total_cycles"`
	MeanCycles  float64           `json:"mean_cycles"`
	P50Cycles   float64           `json:"p50_cycles"`
	P95Cycles   float64           `json:"p95_cycles"`
	P99Cycles   float64           `json:"p99_cycles"`
	P99WallNs   float64           `json:"p99_wall_ns,omitempty"`
	MeanAlloc   float64           `json:"mean_alloc_bytes,omitempty"`
	RowsRet     uint64            `json:"rows_returned"`
	RowsScan    uint64            `json:"rows_scanned"`
	BytesDRAM   uint64            `json:"bytes_from_dram"`
	BytesCPU    uint64            `json:"bytes_to_cpu"`
	Engines     map[string]uint64 `json:"engines"`

	// Optimizer accountability (absent when no call carried an estimate).
	QErrorSamples uint64  `json:"q_error_samples,omitempty"`
	MeanQError    float64 `json:"mean_q_error,omitempty"`
	MaxQError     float64 `json:"max_q_error,omitempty"`
	MeanEstSel    float64 `json:"mean_est_selectivity,omitempty"`
	MeanActSel    float64 `json:"mean_act_selectivity,omitempty"`
}

// Snapshot returns every statement's record, ordered by total modeled
// cycles descending (ties broken by fingerprint for determinism).
func (s *StatStore) Snapshot() []StatementRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StatementRecord, 0, len(s.stmts))
	for k, st := range s.stmts {
		rec := StatementRecord{
			Fingerprint: fmt.Sprintf("%016x", k),
			Text:        st.text,
			Calls:       st.calls,
			Errors:      st.errors,
			SlowCalls:   st.slow,
			TotalCycles: st.totalCycles,
			RowsRet:     st.rowsRet,
			RowsScan:    st.rowsScan,
			BytesDRAM:   st.bytesDRAM,
			BytesCPU:    st.bytesCPU,
			Engines:     map[string]uint64{},
			P50Cycles:   st.cycles.Quantile(0.50),
			P95Cycles:   st.cycles.Quantile(0.95),
			P99Cycles:   st.cycles.Quantile(0.99),
			P99WallNs:   st.wall.Quantile(0.99),
		}
		if ok := st.calls - st.errors; ok > 0 {
			rec.MeanCycles = float64(st.totalCycles) / float64(ok)
			rec.MeanAlloc = float64(st.allocBytes) / float64(ok)
		}
		for eng, n := range st.engines {
			rec.Engines[eng] = n
		}
		if st.qErrSamples > 0 {
			rec.QErrorSamples = st.qErrSamples
			rec.MeanQError = st.qErrSum / float64(st.qErrSamples)
			rec.MaxQError = st.qErrMax
		}
		if st.selSamples > 0 {
			rec.MeanEstSel = st.selEstSum / float64(st.selSamples)
			rec.MeanActSel = st.selActSum / float64(st.selSamples)
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalCycles != out[j].TotalCycles {
			return out[i].TotalCycles > out[j].TotalCycles
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// WriteJSON renders the snapshot as an indented JSON array.
func (s *StatStore) WriteJSON(w io.Writer) error {
	snap := s.Snapshot()
	if snap == nil {
		snap = []StatementRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// WritePrometheus renders the per-statement series in Prometheus text
// exposition format, labeled by fingerprint. Statement text is deliberately
// not a label (unbounded cardinality); /debug/statements carries it.
func (s *StatStore) WritePrometheus(w io.Writer) {
	snap := s.Snapshot()
	writeSeries := func(name, help, typ string, value func(*StatementRecord) (float64, bool)) {
		wrote := false
		for i := range snap {
			v, ok := value(&snap[i])
			if !ok {
				continue
			}
			if !wrote {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
				wrote = true
			}
			fmt.Fprintf(w, "%s{fingerprint=%q} %g\n", name, snap[i].Fingerprint, v)
		}
	}
	writeSeries("rfabric_stmt_calls_total", "Statement executions by fingerprint.", "counter",
		func(r *StatementRecord) (float64, bool) { return float64(r.Calls), true })
	writeSeries("rfabric_stmt_errors_total", "Statement errors by fingerprint.", "counter",
		func(r *StatementRecord) (float64, bool) { return float64(r.Errors), r.Errors > 0 })
	writeSeries("rfabric_stmt_cycles_total", "Modeled cycles by fingerprint.", "counter",
		func(r *StatementRecord) (float64, bool) { return float64(r.TotalCycles), true })
	writeSeries("rfabric_stmt_rows_returned_total", "Rows returned by fingerprint.", "counter",
		func(r *StatementRecord) (float64, bool) { return float64(r.RowsRet), true })
	writeSeries("rfabric_stmt_bytes_from_dram_total", "DRAM bytes moved by fingerprint.", "counter",
		func(r *StatementRecord) (float64, bool) { return float64(r.BytesDRAM), true })
	writeSeries("rfabric_stmt_p99_cycles", "p99 modeled cycles by fingerprint.", "gauge",
		func(r *StatementRecord) (float64, bool) { return r.P99Cycles, true })
	writeSeries("rfabric_stmt_mean_q_error", "Mean optimizer cycle q-error by fingerprint.", "gauge",
		func(r *StatementRecord) (float64, bool) { return r.MeanQError, r.QErrorSamples > 0 })
	writeSeries("rfabric_stmt_slow_total", "Slow-threshold exceedances by fingerprint.", "counter",
		func(r *StatementRecord) (float64, bool) { return float64(r.SlowCalls), r.SlowCalls > 0 })
}

// Handle mounts the statement-statistics endpoints:
//
//	GET /debug/statements      — JSON snapshot, hottest statements first
//	GET /debug/statements.prom — the same store as Prometheus text
func (s *StatStore) Handle(mux *http.ServeMux) {
	mux.HandleFunc("/debug/statements", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.WriteJSON(w)
	})
	mux.HandleFunc("/debug/statements.prom", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WritePrometheus(w)
	})
}

// newStandaloneHistogram builds a histogram outside any registry, sharing
// the owner's disabled flag.
func newStandaloneHistogram(disabled *atomic.Bool) *Histogram {
	return &Histogram{
		bounds:   DefaultBuckets(),
		buckets:  make([]uint64, len(DefaultBuckets())+1),
		disabled: disabled,
	}
}
