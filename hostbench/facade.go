package main

import (
	"fmt"

	"rfabric"
	"rfabric/internal/engine"
	"rfabric/internal/fabric"
	"rfabric/internal/table"
)

// facade runs ops through the public DB façade: QueryOn for ad hoc ops,
// Prepare + Prepared.Run for prepared ones (the plan cache decides whether
// Prepare compiles), Insert for writes.
type facade struct {
	db *rfabric.DB
	li *table.Table
}

func newFacade(c *catalog) (*facade, error) {
	li, err := c.db.Table("lineitem")
	if err != nil {
		return nil, err
	}
	return &facade{db: c.db, li: li}, nil
}

// observe attaches the observability rfbench -serve attaches: a metrics
// registry, sliding windows, and a statement store.
func (f *facade) observe() {
	f.db.SetObserver(rfabric.NewRegistry())
	f.db.SetWindows(rfabric.NewWindows(60))
	f.db.SetStatements(rfabric.NewStatStore())
}

func (f *facade) query(o *op) (*engine.Result, error) {
	if o.prepared {
		p, err := f.db.Prepare(o.text)
		if err != nil {
			return nil, err
		}
		return p.Run(o.kind)
	}
	return f.db.QueryOn(o.kind, o.text)
}

func (f *facade) insert(vals []table.Value) error { return f.db.Insert("lineitem", vals...) }

func (f *facade) setGroupCache(capacity int64) {
	cfg := rfabric.DefaultGroupCacheConfig()
	cfg.CapacityBytes = capacity
	f.db.SetGroupCache(cfg)
}

func (f *facade) groupCacheStats() fabric.GroupCacheStats { return f.db.GroupCacheStats() }

// oracleEps is the relative tolerance for float aggregates: engines and
// morsel merges sum in different orders.
const oracleEps = 1e-9

// oracle is the correctness reference: a bare database with the same data
// and the same writes, queried on the ROW path. References are cached per
// statement text until the next write.
type oracle struct {
	db   *rfabric.DB
	refs map[string]*engine.Result
}

func newOracle(w *workload) (*oracle, error) {
	c, err := buildCatalog(w)
	if err != nil {
		return nil, err
	}
	o := &oracle{db: c.db, refs: map[string]*engine.Result{}}
	if err := o.prime(w); err != nil {
		return nil, err
	}
	return o, nil
}

// ref returns the ROW path's result for text, computing it on first use
// after the last write.
func (o *oracle) ref(text string) (*engine.Result, error) {
	if ref, ok := o.refs[text]; ok {
		return ref, nil
	}
	ref, err := o.db.QueryOn(rfabric.ROW, text)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	o.refs[text] = ref
	return ref, nil
}

// prime computes every reference of a workload that never writes before
// the measured loop starts, so the loop spends its time on measured ops.
func (o *oracle) prime(w *workload) error {
	if w.writes() {
		return nil
	}
	for _, st := range w.stmts {
		for _, text := range st.texts {
			if _, err := o.ref(text); err != nil {
				return err
			}
		}
	}
	return nil
}

// check compares res with the ROW path's result for the same text.
func (o *oracle) check(text string, res *engine.Result) error {
	ref, err := o.ref(text)
	if err != nil {
		return err
	}
	if err := res.EquivalentTo(ref, oracleEps); err != nil {
		return fmt.Errorf("%s result differs from ROW reference: %w", res.Engine, err)
	}
	return nil
}

func (o *oracle) insert(vals []table.Value) error {
	clear(o.refs)
	return o.db.Insert("lineitem", vals...)
}
