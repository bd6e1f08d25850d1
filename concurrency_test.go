// Concurrency tests for the morsel-parallel path: an HTAP stress run pits
// parallel analytical queries against MVCC writers under the race detector,
// and determinism tests pin the guarantee that worker count never changes a
// result. All of them lean on the ownership rule System.Clone documents:
// the DB's shared System is never driven by two goroutines — PAR gives every
// morsel a private clone, and writers only touch the table heap under the
// TxnManager's lock.
package rfabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// htapDB builds an MVCC accounts table loaded with `accounts` rows of
// balance 1000 each, wrapped in a transaction manager.
func htapDB(t *testing.T, accounts, capacity int) (*DB, *TxnManager) {
	t.Helper()
	schema, err := NewSchema(
		Column{Name: "id", Type: Int64, Width: 8},
		Column{Name: "branch", Type: Int32, Width: 4},
		Column{Name: "balance", Type: Int64, Width: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("accounts", schema, capacity, WithMVCC())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewTxnManager(tbl)
	if err != nil {
		t.Fatal(err)
	}
	load := mgr.Begin()
	for i := 0; i < accounts; i++ {
		if err := load.Insert(I64(int64(i)), I32(int32(i%8)), I64(1000)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := load.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, mgr
}

// transferOnce moves a random amount between two live account versions, or
// reports a write-write conflict (which the stress test tolerates).
func transferOnce(mgr *TxnManager, rng *rand.Rand) error {
	tbl := mgr.Table()
	txn := mgr.Begin()
	defer txn.Abort()

	// Pick two live versions under the manager's read lock: the table heap
	// may not be scanned while a commit is appending to it.
	var from, to int
	err := mgr.ReadView(func(uint64) error {
		pick := func() (int, error) {
			for tries := 0; tries < 64; tries++ {
				r := rng.Intn(tbl.NumRows())
				if tbl.VisibleAt(r, txn.ReadTS()) {
					if _, end := tbl.Timestamps(r); end == ^uint64(0) {
						return r, nil
					}
				}
			}
			return 0, errors.New("no live row version found")
		}
		var err error
		if from, err = pick(); err != nil {
			return err
		}
		to, err = pick()
		return err
	})
	if err != nil {
		return err
	}
	if from == to {
		return nil
	}

	read := func(row int) ([]Value, error) {
		vals := make([]Value, 3)
		for c := range vals {
			v, err := txn.Get(row, c)
			if err != nil {
				return nil, err
			}
			vals[c] = v
		}
		return vals, nil
	}
	fromVals, err := read(from)
	if err != nil {
		return ErrTxnConflict
	}
	toVals, err := read(to)
	if err != nil {
		return ErrTxnConflict
	}
	amount := int64(rng.Intn(50) + 1)
	fromVals[2] = I64(fromVals[2].Int - amount)
	toVals[2] = I64(toVals[2].Int + amount)
	if err := txn.Update(from, fromVals...); err != nil {
		return ErrTxnConflict
	}
	if err := txn.Update(to, toVals...); err != nil {
		return ErrTxnConflict
	}
	if _, err := txn.Commit(); err != nil {
		return ErrTxnConflict
	}
	return nil
}

// ErrTxnConflict marks a transfer the stress test retries away.
var ErrTxnConflict = errors.New("write-write conflict")

// TestHTAPParallelStress runs parallel analytical queries concurrently with
// MVCC writers — and with each other — under `go test -race`. Every
// snapshot must see exactly `accounts` live versions summing to the loaded
// total: transfers conserve money, so any other answer means a reader saw a
// torn commit.
func TestHTAPParallelStress(t *testing.T) {
	const (
		accounts  = 200
		writers   = 2
		transfers = 120
		readers   = 2
		sweeps    = 60
	)
	db, mgr := htapDB(t, accounts, accounts+2*writers*transfers+64)
	db.SetParallel(ParallelConfig{Workers: 4, MorselRows: 64})

	errc := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < transfers; i++ {
				if err := transferOnce(mgr, rng); err != nil && !errors.Is(err, ErrTxnConflict) {
					errc <- fmt.Errorf("writer: %w", err)
					return
				}
			}
		}(int64(w + 1))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sweeps; i++ {
				err := mgr.ReadView(func(ts uint64) error {
					res, err := db.QueryOn(RM, fmt.Sprintf("SELECT COUNT(balance), SUM(balance) FROM accounts AS OF %d", ts))
					if err != nil {
						return err
					}
					if res.Aggs[0].Int != accounts {
						return fmt.Errorf("snapshot %d: %d live versions, want %d", ts, res.Aggs[0].Int, accounts)
					}
					if got, want := res.Aggs[1].Float, float64(accounts)*1000; got != want {
						return fmt.Errorf("snapshot %d: total balance %v, want %v — isolation broken", ts, got, want)
					}
					return nil
				})
				if err != nil {
					errc <- fmt.Errorf("reader: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentParallelQueries runs many db.Query calls at once on the
// parallel path — read-only concurrency over one DB — and checks they all
// return the single-goroutine answer.
func TestConcurrentParallelQueries(t *testing.T) {
	db := itemsDB(t, 5000)
	sqlStmt := "SELECT COUNT(qty), SUM(price * 2), MIN(price), MAX(qty) FROM items WHERE qty < 70"

	want, err := db.Query(sqlStmt) // single-goroutine RM baseline
	if err != nil {
		t.Fatal(err)
	}
	db.SetParallel(ParallelConfig{Workers: 3, MorselRows: 256})

	const goroutines, perG = 4, 25
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := db.Query(sqlStmt)
				if err != nil {
					errc <- err
					return
				}
				if err := want.EquivalentTo(res, 1e-9); err != nil {
					errc <- fmt.Errorf("concurrent result drifted: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestDBWorkerCountDeterminism pins the DB-level guarantee SetParallel
// documents: 1 worker and 8 workers produce byte-identical results — rows,
// checksum, aggregates, groups, and every breakdown component except the
// modeled makespan.
func TestDBWorkerCountDeterminism(t *testing.T) {
	db := itemsDB(t, 4000)
	stmts := []string{
		"SELECT id, price FROM items WHERE qty < 40",
		"SELECT COUNT(*), SUM(price * (1 - qty)), AVG(price), MIN(price), MAX(price) FROM items WHERE qty < 80",
		"SELECT branch, COUNT(*), SUM(price) FROM items GROUP BY branch",
	}
	for _, stmt := range stmts {
		db.SetParallel(ParallelConfig{Workers: 1})
		one, err := db.Query(stmt)
		if err != nil {
			t.Fatalf("%s (1 worker): %v", stmt, err)
		}
		db.SetParallel(ParallelConfig{Workers: 8})
		eight, err := db.Query(stmt)
		if err != nil {
			t.Fatalf("%s (8 workers): %v", stmt, err)
		}
		if err := one.EquivalentTo(eight, 0); err != nil {
			t.Errorf("%s: workers changed the result: %v", stmt, err)
		}
		a, b := one.Breakdown, eight.Breakdown
		a.TotalCycles, b.TotalCycles = 0, 0
		if a != b {
			t.Errorf("%s: breakdown drifts with workers:\n  %+v\nvs %+v", stmt, one.Breakdown, eight.Breakdown)
		}
		if eight.Breakdown.TotalCycles > one.Breakdown.TotalCycles {
			t.Errorf("%s: makespan grew with workers: %d -> %d",
				stmt, one.Breakdown.TotalCycles, eight.Breakdown.TotalCycles)
		}
	}
}

// TestTracedWorkerCountDeterminism pins the guarantee that tracing never
// perturbs the PAR path: across a worker sweep, traced queries return
// byte-identical results to each other and to the untraced run, every
// breakdown component except the modeled makespan matches, each span tree
// reconciles with its own breakdown, and the per-morsel detail subtrees are
// identical — morsel boundaries and partials depend only on MorselRows. The
// only worker-dependent detail metadata is the schedule placement (the
// worker/start_cycles attrs on each morsel root), which describes the list
// schedule and so varies with the pool size by design; it is stripped
// before the comparison.
func TestTracedWorkerCountDeterminism(t *testing.T) {
	db := itemsDB(t, 4000)
	stmts := []string{
		"SELECT id, price FROM items WHERE qty < 40",
		"SELECT COUNT(*), SUM(price * (1 - qty)), AVG(price), MIN(price), MAX(price) FROM items WHERE qty < 80",
		"SELECT branch, COUNT(*), SUM(price) FROM items GROUP BY branch",
	}
	for _, stmt := range stmts {
		var base *Result
		var baseMorsels []byte
		for _, workers := range []int{1, 2, 3, 8} {
			db.SetParallel(ParallelConfig{Workers: workers, MorselRows: 256})
			res, trace, err := db.QueryTraced(stmt)
			if err != nil {
				t.Fatalf("%s (%d workers): %v", stmt, workers, err)
			}
			untraced, err := db.Query(stmt)
			if err != nil {
				t.Fatalf("%s (%d workers, untraced): %v", stmt, workers, err)
			}
			if err := res.EquivalentTo(untraced, 0); err != nil {
				t.Errorf("%s (%d workers): tracing changed the result: %v", stmt, workers, err)
			}
			if res.Breakdown != untraced.Breakdown {
				t.Errorf("%s (%d workers): tracing changed the breakdown:\n  %+v\nvs %+v",
					stmt, workers, res.Breakdown, untraced.Breakdown)
			}
			if got := trace.Root.AttributedCycles(); got != res.Breakdown.TotalCycles {
				t.Errorf("%s (%d workers): span tree attributes %d cycles, breakdown says %d",
					stmt, workers, got, res.Breakdown.TotalCycles)
			}
			detail := trace.Root.Find("morsels")
			if detail == nil {
				t.Fatalf("%s (%d workers): trace has no morsels subtree", stmt, workers)
			}
			for _, m := range detail.Children {
				if _, ok := m.Attr("worker"); !ok {
					t.Errorf("%s (%d workers): morsel root %s has no schedule placement", stmt, workers, m.Name)
				}
				stripScheduleAttrs(m)
			}
			morsels, err := json.Marshal(detail)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base, baseMorsels = res, morsels
				continue
			}
			if err := base.EquivalentTo(res, 0); err != nil {
				t.Errorf("%s: workers changed the traced result: %v", stmt, err)
			}
			a, b := base.Breakdown, res.Breakdown
			a.TotalCycles, b.TotalCycles = 0, 0
			if a != b {
				t.Errorf("%s: traced breakdown drifts with workers:\n  %+v\nvs %+v",
					stmt, base.Breakdown, res.Breakdown)
			}
			if !bytes.Equal(morsels, baseMorsels) {
				t.Errorf("%s (%d workers): per-morsel span subtree drifted with worker count", stmt, workers)
			}
		}
	}
}

// TestConcurrentCreateTableAndColumnarQueries pits catalog growth against
// the COL path under the race detector: one goroutine queries on the
// columnar copy — whose first run lazily materializes the copy through the
// shared Arena — while writers create tables, insert into them, and list the
// catalog. The querier stays single so the shared System keeps its one-owner
// rule; the contention under test is the catalog map, the per-table lazy
// columnar copy, and the address arena.
func TestConcurrentCreateTableAndColumnarQueries(t *testing.T) {
	db := itemsDB(t, 2000)
	stmt := "SELECT COUNT(*), SUM(price), MIN(price), MAX(qty) FROM items WHERE qty < 50"
	want, err := db.QueryOn(ROW, stmt) // baseline before any columnar copy exists
	if err != nil {
		t.Fatal(err)
	}

	schema, err := NewSchema(
		Column{Name: "k", Type: Int64, Width: 8},
		Column{Name: "v", Type: Float64, Width: 8},
	)
	if err != nil {
		t.Fatal(err)
	}

	const creators, tablesPerCreator, sweeps = 3, 15, 40
	errc := make(chan error, creators+1)
	var wg sync.WaitGroup
	for c := 0; c < creators; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < tablesPerCreator; i++ {
				name := fmt.Sprintf("scratch_%d_%d", c, i)
				if _, err := db.CreateTable(name, schema, 4); err != nil {
					errc <- fmt.Errorf("creator %d: %w", c, err)
					return
				}
				if err := db.Insert(name, I64(int64(i)), F64(float64(i))); err != nil {
					errc <- fmt.Errorf("creator %d: %w", c, err)
					return
				}
				if _, err := db.Table(name); err != nil {
					errc <- fmt.Errorf("creator %d: %w", c, err)
					return
				}
				db.TableNames()
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < sweeps; i++ {
			res, err := db.QueryOn(COL, stmt)
			if err != nil {
				errc <- fmt.Errorf("querier: %w", err)
				return
			}
			if err := want.EquivalentTo(res, 0); err != nil {
				errc <- fmt.Errorf("querier: catalog growth changed the answer: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := creators*tablesPerCreator + 1; len(db.TableNames()) != got {
		t.Errorf("catalog holds %d tables, want %d", len(db.TableNames()), got)
	}
}

// TestConfigureDuringCreateTable configures views over one table while
// another goroutine grows the catalog: Configure must read the catalog
// under the lock CreateTable writes it under (run with -race).
func TestConfigureDuringCreateTable(t *testing.T) {
	db := itemsDB(t, 200)
	schema, err := NewSchema(Column{Name: "k", Type: Int64, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := db.CreateTable(fmt.Sprintf("grow_%d", i), schema, 1); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 200; i++ {
		if _, err := db.Configure("items", []string{"id", "price"}); err != nil {
			t.Error(err)
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := db.Configure("missing", []string{"id"}); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("Configure on a missing table: %v, want ErrNoSuchTable", err)
	}
}

// itemsDB builds a plain (non-MVCC) items table for the read-only tests.
// stripScheduleAttrs removes the worker-count-dependent schedule placement
// from a morsel sub-root so the rest of the subtree can be compared
// byte-for-byte across worker sweeps.
func stripScheduleAttrs(s *Span) {
	kept := s.Attrs[:0]
	for _, a := range s.Attrs {
		if a.Key == "worker" || a.Key == "start_cycles" {
			continue
		}
		kept = append(kept, a)
	}
	s.Attrs = kept
}

func itemsDB(t *testing.T, rows int) *DB {
	t.Helper()
	schema, err := NewSchema(
		Column{Name: "id", Type: Int64, Width: 8},
		Column{Name: "branch", Type: Int32, Width: 4},
		Column{Name: "price", Type: Float64, Width: 8},
		Column{Name: "qty", Type: Int64, Width: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("items", schema, rows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		err := db.Insert("items",
			I64(int64(i)), I32(int32(i%11)), F64(float64(i%131)/4), I64(int64(i%100)))
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestConcurrentQueryOnSerializes runs statements on ROW, RM, COL and AUTO
// from four goroutines at once over one DB. Statements serialize on the
// DB's execution lock, so no two goroutines drive the shared System
// together — under `go test -race` an unserialized façade reports the
// fabric's gathers racing the cache's prefetches — and every concurrent
// result equals the serial one.
func TestConcurrentQueryOnSerializes(t *testing.T) {
	db := demoDB(t, 2000)
	stmts := []string{
		"SELECT id, price FROM items WHERE grp < 3 AND tag = 'red'",
		"SELECT grp, COUNT(*), SUM(price), MIN(day) FROM items WHERE day >= DATE '1992-01-16' GROUP BY grp",
		"SELECT COUNT(price), AVG(price) FROM items WHERE id < 700",
	}
	kinds := []EngineKind{ROW, RM, COL, AUTO}
	want := map[EngineKind][]*Result{}
	for _, kind := range kinds {
		for _, text := range stmts {
			res, err := db.QueryOn(kind, text)
			if err != nil {
				t.Fatalf("serial %s %q: %v", kind, text, err)
			}
			want[kind] = append(want[kind], res)
		}
	}

	const rounds = 8
	errc := make(chan error, len(kinds))
	var wg sync.WaitGroup
	for _, kind := range kinds {
		wg.Add(1)
		go func(kind EngineKind) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for j, text := range stmts {
					res, err := db.QueryOn(kind, text)
					if err != nil {
						errc <- fmt.Errorf("%s %q: %w", kind, text, err)
						return
					}
					if err := res.EquivalentTo(want[kind][j], 0); err != nil {
						errc <- fmt.Errorf("%s %q differs from its serial result: %w", kind, text, err)
						return
					}
				}
			}
		}(kind)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
