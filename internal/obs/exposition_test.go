package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Prometheus text exposition validity checks (format 0.0.4), driven through
// the real HTTP surface: every line of /metrics and /debug/statements.prom
// must parse, TYPE/HELP comments must be unique per family and precede that
// family's samples, label blocks must be well-formed with sorted keys, and
// histogram _bucket series must be cumulative and consistent with _count.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed metric line.
type promSample struct {
	name   string
	labels []string // "key=value" pairs, raw order
	value  float64
}

// parsePromLine parses `name{k="v",...} value` (the exposition subset this
// repo emits: no timestamps, no escaped newlines inside values).
func parsePromLine(line string) (promSample, error) {
	var s promSample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value separator")
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if !metricNameRe.MatchString(s.name) {
		return s, fmt.Errorf("bad metric name %q", s.name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label block")
		}
		block := rest[1:end]
		rest = rest[end+1:]
		for _, pair := range splitLabels(block) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				return s, fmt.Errorf("label %q has no =", pair)
			}
			if !labelNameRe.MatchString(k) {
				return s, fmt.Errorf("bad label name %q", k)
			}
			if _, err := strconv.Unquote(v); err != nil {
				return s, fmt.Errorf("label %s value %s not a quoted string: %v", k, v, err)
			}
			s.labels = append(s.labels, pair)
		}
	}
	rest = strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.value = v
	return s, nil
}

// splitLabels splits a label block on commas outside quoted values.
func splitLabels(block string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(block); i++ {
		switch block[i] {
		case '"':
			if i == 0 || block[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, block[start:i])
				start = i + 1
			}
		}
	}
	if start < len(block) {
		out = append(out, block[start:])
	}
	return out
}

// familyOf strips the histogram-series suffixes so _bucket/_sum/_count
// samples map back to their TYPE comment's family name.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// checkExposition validates one exposition document line by line and
// returns the parsed samples.
func checkExposition(t *testing.T, body string) []promSample {
	t.Helper()
	typeSeen := map[string]string{}
	helpSeen := map[string]bool{}
	sampleFamilies := map[string]bool{}
	var samples []promSample

	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, " ") || strings.HasSuffix(line, "\t") {
			t.Fatalf("line %d has trailing whitespace: %q", ln+1, line)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			name, kind := fields[2], fields[3]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unknown TYPE %q", ln+1, kind)
			}
			if _, dup := typeSeen[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			if sampleFamilies[name] {
				t.Fatalf("line %d: TYPE for %s appears after its samples", ln+1, name)
			}
			typeSeen[name] = kind
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 {
				t.Fatalf("line %d: malformed HELP comment %q", ln+1, line)
			}
			name := fields[2]
			if helpSeen[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			helpSeen[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form %q", ln+1, line)
		}
		s, err := parsePromLine(line)
		if err != nil {
			t.Fatalf("line %d: %v (%q)", ln+1, err, line)
		}
		fam := familyOf(s.name)
		if _, ok := typeSeen[fam]; !ok {
			// A bare-family sample may also be its own family (counter
			// without suffix whose name happens to end in _count is not
			// emitted by this repo).
			if _, ok := typeSeen[s.name]; !ok {
				t.Fatalf("line %d: sample %s before any TYPE comment", ln+1, s.name)
			}
			fam = s.name
		}
		sampleFamilies[fam] = true
		// Label keys sorted (le is spliced last by withLabel and is the
		// bucket axis, so exclude it from the sort check).
		var keys []string
		for _, pair := range s.labels {
			k, _, _ := strings.Cut(pair, "=")
			if k != "le" {
				keys = append(keys, k)
			}
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] > keys[i] {
				t.Fatalf("line %d: label keys not sorted: %v", ln+1, keys)
			}
		}
		samples = append(samples, s)
	}

	// Histogram families: buckets cumulative, +Inf bucket equals _count.
	type histKey struct{ fam, labels string }
	lastBucket := map[histKey]float64{}
	infBucket := map[histKey]float64{}
	counts := map[histKey]float64{}
	for _, s := range samples {
		fam := familyOf(s.name)
		if typeSeen[fam] != "histogram" {
			continue
		}
		var le string
		var rest []string
		for _, pair := range s.labels {
			if k, v, _ := strings.Cut(pair, "="); k == "le" {
				le = v
			} else {
				rest = append(rest, pair)
			}
		}
		key := histKey{fam, strings.Join(rest, ",")}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			if prev, ok := lastBucket[key]; ok && s.value < prev {
				t.Fatalf("histogram %s%s: bucket le=%s value %g below previous %g",
					fam, key.labels, le, s.value, prev)
			}
			lastBucket[key] = s.value
			if le == `"+Inf"` {
				infBucket[key] = s.value
			}
		case strings.HasSuffix(s.name, "_count"):
			counts[key] = s.value
		}
	}
	for key, c := range counts {
		if inf, ok := infBucket[key]; !ok || inf != c {
			t.Fatalf("histogram %s%s: +Inf bucket %g != count %g", key.fam, key.labels, infBucket[key], c)
		}
	}
	return samples
}

func TestMetricsExpositionValid(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rfabric_queries_total", Labels{"engine": "RM", "table": "t"}).Add(7)
	reg.Counter("rfabric_queries_total", Labels{"engine": "ROW", "table": "t"}).Add(3)
	reg.Counter("rfabric_errors_total", nil).Add(1)
	reg.Gauge("rfabric_info", Labels{"version": "test", "engines": "ROW,RM", "go": "go1"}).Set(1)
	h := reg.Histogram("rfabric_cycles", Labels{"engine": "RM"})
	for _, v := range []float64{100, 5000, 1e6, 1e9} {
		h.Observe(v)
	}

	var last LastTrace
	srv := httptest.NewServer(NewMux(reg, last.Load))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	samples := checkExposition(t, string(body))

	// Spot-check the content survived the round trip.
	total := 0.0
	for _, s := range samples {
		if s.name == "rfabric_queries_total" {
			total += s.value
		}
	}
	if total != 10 {
		t.Fatalf("rfabric_queries_total sums to %g, want 10\n%s", total, body)
	}
}

func TestStatementsExpositionValid(t *testing.T) {
	store := NewStatStore()
	store.Record(StatSample{Fingerprint: 0xabc, Text: "SELECT 1", Engine: "RM",
		Cycles: 5000, WallNanos: 100, RowsRet: 1, RowsScan: 10, BytesDRAM: 640})
	store.Record(StatSample{Fingerprint: 0xabc, Text: "SELECT 1", Engine: "RM",
		Err: true})
	store.Record(StatSample{Fingerprint: 0xdef, Text: "SELECT 2", Engine: "ROW",
		Cycles: 9000, Slow: true, RowsRet: 2, RowsScan: 20, BytesDRAM: 1280,
		EstCycles: 4500, HasSel: true, EstSelectivity: 0.5, ActSelectivity: 0.4})

	mux := http.NewServeMux()
	store.Handle(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/statements.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	samples := checkExposition(t, string(body))

	byName := map[string]int{}
	for _, s := range samples {
		byName[s.name]++
		for _, pair := range s.labels {
			k, v, _ := strings.Cut(pair, "=")
			if k != "fingerprint" {
				t.Fatalf("unexpected label %s on %s", k, s.name)
			}
			if uq, _ := strconv.Unquote(v); len(uq) != 16 {
				t.Fatalf("fingerprint label %q not a 16-hex-digit string", v)
			}
		}
	}
	if byName["rfabric_stmt_calls_total"] != 2 {
		t.Fatalf("want 2 calls_total series, got %d\n%s", byName["rfabric_stmt_calls_total"], body)
	}
	if byName["rfabric_stmt_errors_total"] != 1 || byName["rfabric_stmt_slow_total"] != 1 {
		t.Fatalf("errors/slow series = %d/%d, want 1/1 (zero-valued series omitted)\n%s",
			byName["rfabric_stmt_errors_total"], byName["rfabric_stmt_slow_total"], body)
	}
}
