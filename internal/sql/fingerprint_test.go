package sql

import "testing"

// The fingerprint contract: literals never split a fingerprint, structure
// always does, and the hash is a pure function of the normalized text.

func TestFingerprintStripsLiterals(t *testing.T) {
	cases := [][2]string{
		{"SELECT l_orderkey FROM lineitem WHERE l_quantity < 5",
			"SELECT l_orderkey FROM lineitem WHERE l_quantity < 17"},
		{"SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '1994-01-01'",
			"SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '1997-06-30'"},
		{"SELECT c_name FROM customer WHERE c_mktsegment = 'BUILDING'",
			"SELECT c_name FROM customer WHERE c_mktsegment = 'AUTOMOBILE'"},
		// Whitespace and keyword/identifier case are normalization noise.
		{"select   l_orderkey from LINEITEM where l_quantity < 5",
			"SELECT l_orderkey FROM lineitem WHERE l_quantity < 99"},
		// An AS OF timestamp is a literal like any other.
		{"SELECT SUM(balance) FROM accounts AS OF 12 WHERE branch = 3",
			"SELECT SUM(balance) FROM accounts AS OF 90210 WHERE branch = 4"},
	}
	for _, c := range cases {
		n1, h1 := Fingerprint(c[0])
		n2, h2 := Fingerprint(c[1])
		if n1 != n2 || h1 != h2 {
			t.Errorf("want same fingerprint:\n  %q -> %q (%#x)\n  %q -> %q (%#x)",
				c[0], n1, h1, c[1], n2, h2)
		}
	}
}

func TestFingerprintKeepsStructureApart(t *testing.T) {
	distinct := []string{
		"SELECT l_orderkey FROM lineitem WHERE l_quantity < 5",
		"SELECT l_orderkey FROM lineitem AS OF 5 WHERE l_quantity < 5",
		"SELECT l_orderkey FROM lineitem WHERE l_quantity > 5",
		"SELECT l_orderkey FROM lineitem WHERE l_discount < 5",
		"SELECT l_orderkey, l_partkey FROM lineitem WHERE l_quantity < 5",
		"SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 5",
		"SELECT l_orderkey FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
		"SELECT l_orderkey FROM lineitem JOIN orders ON l_orderkey = orders.o_orderkey",
	}
	seen := map[uint64]string{}
	for _, q := range distinct {
		_, h := Fingerprint(q)
		if prev, dup := seen[h]; dup {
			t.Errorf("fingerprint collision between %q and %q", prev, q)
		}
		seen[h] = q
	}
}

func TestFingerprintQualifiedNames(t *testing.T) {
	norm, _ := Fingerprint("SELECT Orders.O_OrderDate FROM orders WHERE orders.o_totalprice < 100")
	want := "SELECT orders.o_orderdate FROM orders WHERE orders.o_totalprice < ?"
	if norm != want {
		t.Errorf("normalized %q, want %q", norm, want)
	}
}

func TestFingerprintJoinShape(t *testing.T) {
	norm, _ := Fingerprint(
		"SELECT c_nationkey, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey " +
			"JOIN customer ON o_custkey = c_custkey WHERE o_orderdate >= DATE '1993-10-01' " +
			"GROUP BY c_nationkey ORDER BY 2 DESC LIMIT 20")
	want := "SELECT c_nationkey , COUNT ( * ) FROM lineitem JOIN orders ON l_orderkey = o_orderkey " +
		"JOIN customer ON o_custkey = c_custkey WHERE o_orderdate >= DATE ? " +
		"GROUP BY c_nationkey ORDER BY ? DESC LIMIT ?"
	if norm != want {
		t.Errorf("normalized join shape:\n got %q\nwant %q", norm, want)
	}
}

func TestFingerprintUnlexableFallsBackToRawText(t *testing.T) {
	raw := "SELECT ; nonsense"
	norm, h := Fingerprint(raw)
	if norm != raw {
		t.Errorf("unlexable statement normalized to %q, want raw text", norm)
	}
	_, h2 := Fingerprint(raw)
	if h != h2 {
		t.Error("fingerprint hash not deterministic for unlexable text")
	}
}

func BenchmarkFingerprint(b *testing.B) {
	q := "SELECT l_returnflag, l_linestatus, SUM(l_quantity) FROM lineitem " +
		"WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fingerprint(q)
	}
}
