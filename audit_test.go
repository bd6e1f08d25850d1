package rfabric

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestAuditReplaysAllEnginesAndStatements runs the full optimizer audit at a
// small scale and checks its structural guarantees: every statement replays
// on every path, q-errors are well-formed, the statement store saw every
// replay, and both output formats render.
func TestAuditReplaysAllEnginesAndStatements(t *testing.T) {
	rep, err := RunAudit(DefaultConfig(), 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad := rep.CheckShape(); len(bad) != 0 {
		t.Fatalf("audit shape violations: %v", bad)
	}
	if len(rep.Queries) != len(DefaultAuditSet()) {
		t.Fatalf("audit covered %d queries, want %d", len(rep.Queries), len(DefaultAuditSet()))
	}
	for _, q := range rep.Queries {
		var okRuns int
		for _, run := range q.Runs {
			if run.Error == "" {
				okRuns++
				if run.ActCycles == 0 {
					t.Errorf("%s/%s: zero actual cycles", q.Name, run.Engine)
				}
			}
		}
		// Every path must execute the audit set — that is what the
		// ship-date predicates and the IDX join fallback guarantee.
		if okRuns != len(AuditEngines) {
			t.Errorf("%s: only %d/%d paths ran cleanly: %+v", q.Name, okRuns, len(AuditEngines), q.Runs)
		}
		if q.MaxQError < 1 {
			t.Errorf("%s: no q-error recorded", q.Name)
		}
	}
	// The statement store saw one fingerprint per audit statement, each
	// replayed len(AuditEngines) times.
	if len(rep.Statements) != len(DefaultAuditSet()) {
		t.Errorf("statement store holds %d fingerprints, want %d: %+v",
			len(rep.Statements), len(DefaultAuditSet()), rep.Statements)
	}
	for _, s := range rep.Statements {
		if s.Calls != uint64(len(AuditEngines)) {
			t.Errorf("statement %s recorded %d calls, want %d", s.Text, s.Calls, len(AuditEngines))
		}
		if s.QErrorSamples == 0 {
			t.Errorf("statement %s recorded no q-error samples", s.Text)
		}
	}

	var tbl bytes.Buffer
	rep.WriteTable(&tbl)
	for _, want := range []string{"Optimizer accuracy audit", "AUTO chose", "q_err"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("audit table lacks %q:\n%s", want, tbl.String())
		}
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back AuditReport
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("audit JSON does not round-trip: %v", err)
	}
	if back.MaxQError != rep.MaxQError || len(back.Queries) != len(rep.Queries) {
		t.Errorf("audit JSON round-trip diverged")
	}
}

// TestAuditRechoice pins that the audit replays every path cold: q6's ROW
// run inside the full replay — after the projection and q1 runs have warmed
// the hierarchy over a lineitem table that fits the modeled L2 — costs
// exactly what the same statement costs as the first query on a fresh
// database.
func TestAuditRechoice(t *testing.T) {
	const rows = 6000
	var q6 string
	for _, st := range DefaultAuditSet() {
		if st.Name == "q6" {
			q6 = st.SQL
		}
	}
	rep, err := RunAudit(DefaultConfig(), rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	var audited uint64
	for _, q := range rep.Queries {
		for _, run := range q.Runs {
			if q.Name == "q6" && run.Engine == "ROW" {
				audited = run.ActCycles
			}
		}
	}
	fresh, err := NewTPCHDB(DefaultConfig(), rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fresh.QueryOn(ROW, q6)
	if err != nil {
		t.Fatal(err)
	}
	if audited == 0 || audited != res.Breakdown.TotalCycles {
		t.Fatalf("audited q6/ROW ran %d cycles, a fresh database %d", audited, res.Breakdown.TotalCycles)
	}
}
