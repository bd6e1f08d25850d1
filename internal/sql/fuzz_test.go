package sql

import (
	"testing"

	"rfabric/internal/geometry"
)

// FuzzParseSQL drives arbitrary bytes through the full front end. The
// contract under fuzzing: Parse never panics — it returns a *Stmt or an
// error — and any statement it does accept must survive planning against a
// representative schema, lowering to the physical plan IR, and validation
// of the results, again without panicking. Planning is allowed to reject
// the statement (unknown columns, type mismatches); it is not allowed to
// crash.
func FuzzParseSQL(f *testing.F) {
	seeds := []string{
		"SELECT id, price FROM items",
		"SELECT id FROM t WHERE qty < 5 AND flag = 'R' AND shipdate >= DATE '1994-01-01'",
		"SELECT id FROM t WHERE qty BETWEEN 2 AND 7 AND id > 0",
		"SELECT flag, COUNT(*), SUM(price * (1 - qty)), AVG(qty) FROM t GROUP BY flag",
		"SELECT SUM(price + qty * 2) FROM t",
		"SELECT MIN(price), MAX(price) FROM t WHERE cnt != 3",
		"select ID from Items where QTY < 5",
		"SELECT",
		"SELECT a FROM t WHERE a <",
		"SELECT COUNT( FROM t",
		"SELECT * FROM t",
		"SELECT a FROM t GROUP BY",
		"SELECT '",
		"SELECT a FROM t WHERE d = DATE '19x4-01-01'",
		"SELECT a,,b FROM t",
		"\x00\xff SELECT \xf0 FROM \x9f",
		"SELECT flag, COUNT(*) FROM t GROUP BY flag ORDER BY flag DESC LIMIT 10",
		"SELECT flag, SUM(qty) FROM t GROUP BY flag ORDER BY 2, flag ASC LIMIT 0",
		"SELECT flag, COUNT(*) FROM t GROUP BY flag ORDER BY 0",
		"SELECT id FROM t LIMIT -1",
		"SELECT id, SUM(price) FROM t JOIN u ON id = rid GROUP BY id",
		"SELECT t.id, u.tag, SUM(t.price) FROM t JOIN u ON t.id = u.rid GROUP BY t.id, u.tag",
		"SELECT id FROM t JOIN u ON id = rid JOIN v ON rid = vid WHERE qty < 3",
		"SELECT flag, shipdate, COUNT(*) FROM t GROUP BY flag, shipdate",
		"SELECT id FROM t JOIN t ON id = id",
		"SELECT id FROM t JOIN u ON id < rid",
		"SELECT id FROM t JOIN",
		"SELECT id FROM t JOIN u ON",
		"SELECT id FROM t JOIN u ON id =",
		"SELECT u. FROM t JOIN u ON id = rid",
		"SELECT id FROM t JOIN u ON qty = qty",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	schema := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "qty", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "price", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "flag", Type: geometry.Char, Width: 1},
		geometry.Column{Name: "shipdate", Type: geometry.Date, Width: 4},
		geometry.Column{Name: "cnt", Type: geometry.Int32, Width: 4},
	)

	// Join statements lower against a two-schema catalog: the primary table
	// name resolves to the schema above, anything else to a second schema
	// with disjoint column names. Every table name resolving keeps the fuzzer
	// inside the lowerer (duplicate-table, ambiguity, and key-side checks)
	// instead of bouncing off name lookup.
	other := geometry.MustSchema(
		geometry.Column{Name: "rid", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "vid", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "val", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "tag", Type: geometry.Char, Width: 2},
	)

	// Fingerprint normalization seeds: literal variety, qualified names, and
	// JOIN shapes (the inputs the statistics store keys on).
	fingerprintSeeds := []string{
		"SELECT id FROM t WHERE qty < 5.5 AND flag = 'R' AND shipdate >= DATE '1994-01-01'",
		"SELECT id FROM t WHERE qty < .5 AND price <> 1e3",
		"SELECT t.id, u.tag FROM t JOIN u ON t.id = u.rid WHERE t.qty < 3 LIMIT 7",
		"SELECT id FROM t JOIN u ON id = rid JOIN v ON rid = vid WHERE qty BETWEEN 2 AND 7",
		"select T.ID from t where T.QTY < 0005 and flag = ''",
		"SELECT id FROM t WHERE flag = 'it''s'",
		"SELECT id FROM t WHERE flag = '\x00\xff'",
	}
	for _, s := range fingerprintSeeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, input string) {
		// Fingerprinting must accept anything — it is called on statements
		// before they parse — and must be idempotent: normalizing normalized
		// text cannot change the fingerprint again (literals are already '?').
		norm, hash := Fingerprint(input)
		norm2, hash2 := Fingerprint(norm)
		if norm2 != norm || hash2 != hash {
			t.Errorf("Fingerprint not idempotent: %q -> %q (%#x) -> %q (%#x)",
				input, norm, hash, norm2, hash2)
		}

		st, err := Parse(input)
		if err != nil {
			if st != nil {
				t.Errorf("Parse(%q) returned both a statement and an error", input)
			}
			return
		}
		if st == nil {
			t.Fatalf("Parse(%q) returned nil statement and nil error", input)
		}
		if len(st.Joins) > 0 {
			// Multi-table statements go through the catalog lowerer; the
			// same contract applies — reject or produce a valid tree, never
			// panic.
			lookup := func(name string) (*geometry.Schema, error) {
				if name == st.Table {
					return schema, nil
				}
				return other, nil
			}
			root, err := LowerCatalog(st, lookup)
			if err != nil {
				return
			}
			if err := root.Validate(); err != nil {
				t.Errorf("LowerCatalog(%q) returned an invalid plan: %v", input, err)
			}
			_ = root.Explain(nil)
			return
		}
		// A lowered chain, sinks included, validates and renders without
		// panicking.
		root, err := Lower(st, schema)
		if err != nil {
			return // rejection is fine; only a panic is a bug
		}
		if err := root.Validate(); err != nil {
			t.Errorf("Lower(%q) returned an invalid plan: %v", input, err)
		}
		_ = root.Explain(schema)
	})
}
