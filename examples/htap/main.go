// HTAP demonstrates the paper's central promise (§I, §III-C): transactional
// ingest and analytical queries over a single row-oriented copy of the data.
// Writers append and update account rows through snapshot-isolation
// transactions; concurrently, an analytical reader sweeps the fabric's
// ephemeral column groups at fresh snapshots, with row-version visibility
// decided by the two per-row timestamps the fabric compares "in hardware".
// No second layout, no conversion, no staleness window.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rfabric"
)

const (
	accounts = 20_000
	writers  = 4
	txnsPer  = 2_000
)

func main() {
	schema, err := rfabric.NewSchema(
		rfabric.Column{Name: "id", Type: rfabric.Int64, Width: 8},
		rfabric.Column{Name: "branch", Type: rfabric.Int32, Width: 4},
		rfabric.Column{Name: "balance", Type: rfabric.Int64, Width: 8},
		rfabric.Column{Name: "flags", Type: rfabric.Int32, Width: 4},
		rfabric.Column{Name: "owner", Type: rfabric.Char, Width: 16},
	)
	if err != nil {
		log.Fatal(err)
	}

	db, err := rfabric.Open(rfabric.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	// Updates append versions, so reserve room beyond the initial load.
	capacity := accounts + 2*writers*txnsPer + 1024
	tbl, err := db.CreateTable("accounts", schema, capacity, rfabric.WithMVCC())
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := rfabric.NewTxnManager(tbl)
	if err != nil {
		log.Fatal(err)
	}

	// Initial load: every account starts with balance 1000.
	load := mgr.Begin()
	for i := 0; i < accounts; i++ {
		err := load.Insert(
			rfabric.I64(int64(i)),
			rfabric.I32(int32(i%64)),
			rfabric.I64(1000),
			rfabric.I32(0),
			rfabric.Str(fmt.Sprintf("acct-%05d", i)),
		)
		if err != nil {
			log.Fatal(err)
		}
	}
	if _, err := load.Commit(); err != nil {
		log.Fatal(err)
	}

	// Writers move money between random accounts: each transaction debits
	// one live account version and credits another. Total balance is the
	// invariant every snapshot must preserve.
	var committed, conflicts atomic.Int64
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for t := 0; t < txnsPer; t++ {
				if err := transfer(mgr, rng); err != nil {
					if errors.Is(err, errConflict) {
						conflicts.Add(1)
						continue
					}
					log.Fatal(err)
				}
				committed.Add(1)
			}
		}(int64(w + 1))
	}
	go func() { wg.Wait(); close(writersDone) }()

	// The analytical reader: SUM(balance) over the fabric at the freshest
	// snapshot, again and again while the writers keep committing. Every
	// snapshot must see the invariant intact.
	sys := db.System()
	runs := 0
	for done := false; !done; {
		select {
		case <-writersDone:
			done = true
		case <-time.After(2 * time.Millisecond):
		}
		var total int64
		var snapshot uint64
		err := mgr.ReadView(func(ts uint64) error {
			snapshot = ts
			t, err := sumBalances(sys, tbl, ts)
			total = t
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		if want := int64(accounts) * 1000; total != want {
			log.Fatalf("snapshot %d: total balance %d, want %d — isolation broken", snapshot, total, want)
		}
		runs++
		if runs <= 10 || done {
			fmt.Printf("analytics at snapshot %-5d total balance %d (invariant holds)\n", snapshot, total)
		}
	}
	fmt.Printf("... %d analytical sweeps, all consistent\n", runs)

	fmt.Printf("\nwriters done: %d committed, %d write-write conflicts detected and retried away\n",
		committed.Load(), conflicts.Load())
	fmt.Printf("final snapshot %d: %d row versions in one row-oriented copy (never converted)\n",
		mgr.Now(), tbl.NumRows())
}

var errConflict = errors.New("conflict")

// transfer debits one live account and credits another in one transaction.
func transfer(mgr *rfabric.TxnManager, rng *rand.Rand) error {
	tbl := mgr.Table()
	txn := mgr.Begin()
	defer txn.Abort()

	// Pick two live versions at our snapshot.
	from, err := pickLive(mgr, txn.ReadTS(), rng)
	if err != nil {
		return err
	}
	to, err := pickLive(mgr, txn.ReadTS(), rng)
	if err != nil {
		return err
	}
	if from == to {
		return nil // degenerate transfer; nothing to do
	}
	amount := int64(rng.Intn(50) + 1)
	fromVals, err := rowValues(tbl, from)
	if err != nil {
		return err
	}
	toVals, err := rowValues(tbl, to)
	if err != nil {
		return err
	}
	fromVals[2] = rfabric.I64(fromVals[2].Int - amount)
	toVals[2] = rfabric.I64(toVals[2].Int + amount)
	if err := txn.Update(from, fromVals...); err != nil {
		return errConflict
	}
	if err := txn.Update(to, toVals...); err != nil {
		return errConflict
	}
	if _, err := txn.Commit(); err != nil {
		return errConflict
	}
	return nil
}

func pickLive(mgr *rfabric.TxnManager, ts uint64, rng *rand.Rand) (int, error) {
	tbl := mgr.Table()
	for tries := 0; tries < 128; tries++ {
		r := rng.Intn(tbl.NumRows())
		if tbl.VisibleAt(r, ts) {
			if _, end := tbl.Timestamps(r); end == ^uint64(0) {
				return r, nil
			}
		}
	}
	return 0, errors.New("htap: could not find a live row version")
}

func rowValues(tbl *rfabric.Table, r int) ([]rfabric.Value, error) {
	out := make([]rfabric.Value, tbl.Schema().NumColumns())
	for c := range out {
		v, err := tbl.Get(r, c)
		if err != nil {
			return nil, err
		}
		out[c] = v
	}
	return out, nil
}

// sumBalances runs the analytical side through the fabric: an ephemeral
// view of just the balance column at the given snapshot, with the aggregate
// folded inside the fabric.
func sumBalances(sys *rfabric.System, tbl *rfabric.Table, ts uint64) (int64, error) {
	geom, err := rfabric.NewGeometryByName(tbl.Schema(), "balance")
	if err != nil {
		return 0, err
	}
	ev, err := sys.Fab.Configure(tbl, geom, rfabric.WithSnapshot(ts))
	if err != nil {
		return 0, err
	}
	agg, err := ev.RunOffload(&rfabric.Offload{Aggs: []rfabric.AggSpec{{Kind: rfabric.Sum, Col: 2}}})
	if err != nil {
		return 0, err
	}
	return int64(agg.Values[0].Float), nil
}
