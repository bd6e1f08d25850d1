package rfabric

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/sql"
	"rfabric/internal/tpch"
)

// Optimizer accuracy audit: replay a statement set across every execution
// path, each run on a cold machine, comparing the cost model's estimates
// against what each path actually did. The report answers the
// accountability questions the statement store raises — where is the cost
// model wrong (q-error), and did AUTO pick the path that actually won.

// AuditEngines is the audit's replay order. COL runs before AUTO so the
// columnar copy it materializes is an access path AUTO can price, matching
// a warmed-up system.
var AuditEngines = []EngineKind{ROW, COL, RM, "IDX", PAR, AUTO}

// AuditRun is one (statement, engine) replay.
type AuditRun struct {
	Engine string `json:"engine"`        // requested path
	Ran    string `json:"ran,omitempty"` // resolved path (AUTO's choice, RM→PAR reroute)
	// EstCycles is the cost model's pricing of the resolved path; absent
	// when the path is unpriceable (IDX without a usable index).
	EstCycles float64 `json:"est_cycles,omitempty"`
	ActCycles uint64  `json:"act_cycles,omitempty"`
	// QError is max(est/act, act/est) over modeled cycles — 1.0 is a
	// perfect prediction.
	QError float64 `json:"q_error,omitempty"`
	EstSel float64 `json:"est_selectivity,omitempty"`
	ActSel float64 `json:"act_selectivity,omitempty"`
	// Offload names the fabric offload program the run carried ("agg",
	// "group-agg", "dict-scan", "semi-join", combinations); empty when the
	// run consumed packed chunks CPU-side.
	Offload string `json:"offload,omitempty"`
	Error   string `json:"error,omitempty"`
}

// AuditQuery is one statement's replay across all engines plus the
// optimizer verdicts derived from it.
type AuditQuery struct {
	Name        string     `json:"name"`
	SQL         string     `json:"sql"`
	Fingerprint string     `json:"fingerprint"`
	Runs        []AuditRun `json:"runs"`
	// AutoChose is the path AUTO resolved to; BestSerial the serial path
	// with the lowest actual cycles. They disagree on a misprediction.
	AutoChose   string  `json:"auto_chose,omitempty"`
	BestSerial  string  `json:"best_serial,omitempty"`
	AutoOptimal bool    `json:"auto_optimal"`
	MaxQError   float64 `json:"max_q_error,omitempty"`
}

// AuditReport is the full audit artifact (rfbench -audit).
type AuditReport struct {
	LineitemRows   int                   `json:"lineitem_rows"`
	Seed           int64                 `json:"seed"`
	Queries        []AuditQuery          `json:"queries"`
	Mispredictions int                   `json:"mispredictions"`
	MaxQError      float64               `json:"max_q_error"`
	Statements     []obs.StatementRecord `json:"statements"`
}

// AuditStatement names one statement of the replay set.
type AuditStatement struct {
	Name string
	SQL  string
}

// DefaultAuditSet is the TPC-H replay: the single-table statements behind
// the paper's Figure 7 plus the Q3/Q5/Q10-class joins, all with a
// ship-date predicate the secondary index can serve.
func DefaultAuditSet() []AuditStatement {
	return []AuditStatement{
		{"projection", `SELECT l_orderkey, l_extendedprice, l_quantity FROM lineitem WHERE l_shipdate < DATE '1995-06-17'`},
		{"q1", `SELECT l_returnflag, SUM(l_quantity), SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag`},
		{"q6", `SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_quantity < 24`},
		{"q3-join", tpch.Q3SQL},
		{"q5-join", tpch.Q5SQL},
		{"q10-join", tpch.Q10SQL},
	}
}

// NewTPCHDB builds the multi-table TPC-H catalog the audit (and the join
// test suite) replays: lineitem plus the orders/customer/part tables whose
// keys correlate with it, and a secondary index on l_shipdate so the IDX
// path has something to price.
func NewTPCHDB(cfg Config, lineitemRows int, seed int64) (*DB, error) {
	db, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	li, err := db.CreateTable("lineitem", tpch.LineitemSchema(), lineitemRows)
	if err != nil {
		return nil, err
	}
	if err := tpch.Generate(li, lineitemRows, seed); err != nil {
		return nil, err
	}
	nOrders := tpch.OrdersFor(lineitemRows)
	ord, err := db.CreateTable("orders", tpch.OrdersSchema(), nOrders)
	if err != nil {
		return nil, err
	}
	if err := tpch.GenerateOrders(ord, nOrders, seed+1); err != nil {
		return nil, err
	}
	nCust := tpch.CustomersFor(nOrders)
	cust, err := db.CreateTable("customer", tpch.CustomerSchema(), nCust)
	if err != nil {
		return nil, err
	}
	if err := tpch.GenerateCustomer(cust, nCust, seed+2); err != nil {
		return nil, err
	}
	const nPart = 300 // a prefix of the part-key domain: dangling l_partkey drops out
	part, err := db.CreateTable("part", tpch.PartSchema(), nPart)
	if err != nil {
		return nil, err
	}
	if err := tpch.GeneratePart(part, nPart, seed+3); err != nil {
		return nil, err
	}
	if _, err := db.CreateIndex("lineitem", "l_shipdate"); err != nil {
		return nil, err
	}
	return db, nil
}

// RunAudit builds a TPC-H database and replays the default statement set
// across all engines, with a statement store attached so the report also
// carries the pg_stat_statements view of the replay.
func RunAudit(cfg Config, lineitemRows int, seed int64) (*AuditReport, error) {
	db, err := NewTPCHDB(cfg, lineitemRows, seed)
	if err != nil {
		return nil, err
	}
	return db.Audit(DefaultAuditSet(), lineitemRows, seed)
}

// Audit replays the given statements across AuditEngines on this database.
func (db *DB) Audit(set []AuditStatement, lineitemRows int, seed int64) (*AuditReport, error) {
	stats := db.stats
	if stats == nil {
		stats = obs.NewStatStore()
		db.SetStatements(stats)
	}
	rep := &AuditReport{LineitemRows: lineitemRows, Seed: seed}
	for _, stmt := range set {
		_, fp := sql.Fingerprint(stmt.SQL)
		aq := AuditQuery{Name: stmt.Name, SQL: stmt.SQL, Fingerprint: fmt.Sprintf("%016x", fp)}
		bestCycles := uint64(math.MaxUint64)
		for _, kind := range AuditEngines {
			// Every path starts cold, so no run inherits the caches an
			// earlier replay warmed and each q-error compares like with like.
			db.sys.ResetState()
			run := db.auditOne(kind, stmt.SQL)
			aq.Runs = append(aq.Runs, run)
			if run.Error != "" {
				continue
			}
			if run.QError > aq.MaxQError {
				aq.MaxQError = run.QError
			}
			switch kind {
			case ROW, COL, RM, "IDX":
				if run.ActCycles < bestCycles {
					bestCycles = run.ActCycles
					aq.BestSerial = run.Ran
				}
			case AUTO:
				aq.AutoChose = run.Ran
			}
		}
		aq.AutoOptimal = aq.AutoChose != "" && aq.AutoChose == aq.BestSerial
		if !aq.AutoOptimal {
			rep.Mispredictions++
		}
		if aq.MaxQError > rep.MaxQError {
			rep.MaxQError = aq.MaxQError
		}
		rep.Queries = append(rep.Queries, aq)
	}
	rep.Statements = stats.Snapshot()
	return rep, nil
}

// auditOne replays one statement on one path and extracts the
// estimated-vs-actual pair the statement context recorded.
func (db *DB) auditOne(kind EngineKind, text string) AuditRun {
	run := AuditRun{Engine: string(kind)}
	c := db.observe(text, nil)
	if c == nil {
		// The attached store is disabled; the pair is still needed here.
		c = &stmtCtx{text: text, start: time.Now()}
	}
	c.price = true
	res, _, err := db.query(kind, text, c)
	if err != nil {
		run.Error = err.Error()
		return run
	}
	run.Ran = res.Engine
	run.ActCycles = res.Breakdown.TotalCycles
	run.Offload = res.Offload
	if c.est != nil {
		run.EstCycles = c.est.Cycles
		run.EstSel = c.est.Selectivity
		run.QError = plan.QError(c.est.Cycles, float64(run.ActCycles))
	}
	if c.act != nil && c.act.RowsScanned > 0 {
		run.ActSel = c.act.Selectivity()
	}
	return run
}

// WriteJSON emits the report as indented JSON.
func (r *AuditReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the misprediction report.
func (r *AuditReport) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Optimizer accuracy audit — TPC-H lineitem %d rows, seed %d\n", r.LineitemRows, r.Seed)
	fmt.Fprintf(w, "mispredictions: %d/%d   worst q-error: %.2f\n", r.Mispredictions, len(r.Queries), r.MaxQError)
	for _, q := range r.Queries {
		fmt.Fprintf(w, "\n%s  [%s]\n", q.Name, q.Fingerprint)
		fmt.Fprintf(w, "  %-6s %-6s %14s %14s %8s %8s %8s\n",
			"engine", "ran", "est_cycles", "act_cycles", "q_err", "est_sel", "act_sel")
		for _, run := range q.Runs {
			if run.Error != "" {
				fmt.Fprintf(w, "  %-6s error: %s\n", run.Engine, run.Error)
				continue
			}
			fmt.Fprintf(w, "  %-6s %-6s %14.0f %14d %8.2f %8.3f %8.3f\n",
				run.Engine, run.Ran, run.EstCycles, run.ActCycles, run.QError, run.EstSel, run.ActSel)
		}
		verdict := "OPTIMAL"
		if !q.AutoOptimal {
			verdict = fmt.Sprintf("MISPREDICTED (best serial: %s)", q.BestSerial)
		}
		fmt.Fprintf(w, "  AUTO chose %s — %s\n", q.AutoChose, verdict)
	}
}

// CheckShape verifies the audit's structural claims: every statement ran on
// every path (or recorded why not), AUTO always resolved, and every
// successful run with an estimate produced a finite q-error ≥ 1.
func (r *AuditReport) CheckShape() []string {
	var bad []string
	for _, q := range r.Queries {
		if len(q.Runs) != len(AuditEngines) {
			bad = append(bad, fmt.Sprintf("%s: %d runs, want %d", q.Name, len(q.Runs), len(AuditEngines)))
		}
		if q.AutoChose == "" {
			bad = append(bad, fmt.Sprintf("%s: AUTO did not resolve", q.Name))
		}
		for _, run := range q.Runs {
			if run.Error != "" {
				continue
			}
			if run.EstCycles > 0 && (run.QError < 1 || math.IsInf(run.QError, 0) || math.IsNaN(run.QError)) {
				bad = append(bad, fmt.Sprintf("%s/%s: degenerate q-error %v", q.Name, run.Engine, run.QError))
			}
		}
	}
	if len(r.Statements) == 0 {
		bad = append(bad, "audit recorded no statement statistics")
	}
	return bad
}
