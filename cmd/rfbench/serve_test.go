package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"rfabric/internal/obs"
)

// End-to-end test of the -serve surface through httptest: every endpoint
// answers and the windows document reflects the warmup query. This is the
// in-process twin of CI's curl smoke step.
func TestServeEndpoints(t *testing.T) {
	mux, err := setupServe(2000, 1, 10_000_000, io.Discard)
	if err != nil {
		t.Fatalf("setupServe: %v", err)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// The windows saw the warmup query.
	code, body := get("/debug/windows.json")
	if code != 200 {
		t.Fatalf("/debug/windows.json = %d", code)
	}
	var win obs.WindowsJSON
	if err := json.Unmarshal(body, &win); err != nil {
		t.Fatalf("windows.json: %v\n%s", err, body)
	}
	if win.Window.Queries == 0 || win.Window.MeanCycles == 0 {
		t.Fatalf("windows empty after warmup: %+v", win.Window)
	}

	// The registry saw the warmup query.
	if code, body := get("/metrics"); code != 200 || !strings.Contains(string(body), "rfabric_queries_total") {
		t.Fatalf("/metrics missing the warmup query: %d\n%s", code, body)
	}

	// A query runs, lands in the statement store, and updates the windows.
	if code, body := get("/query?q=" + url.QueryEscape("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25")); code != 200 {
		t.Fatalf("/query = %d %s", code, body)
	}
	if code, body := get("/debug/statements"); code != 200 || !strings.Contains(string(body), "lineitem") {
		t.Fatalf("/debug/statements = %d %s", code, body)
	}
	code, body = get("/debug/windows.json")
	var after obs.WindowsJSON
	if code != 200 || json.Unmarshal(body, &after) != nil {
		t.Fatalf("windows after query: %d", code)
	}
	if after.Window.Queries <= win.Window.Queries {
		t.Fatalf("query did not advance the windows: %d -> %d", win.Window.Queries, after.Window.Queries)
	}

	if code, _ := get("/query"); code != http.StatusBadRequest {
		t.Fatalf("missing q: %d, want 400", code)
	}
}
