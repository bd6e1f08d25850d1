package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"

	"rfabric/internal/colstore"
	"rfabric/internal/engine"
	"rfabric/internal/geometry"
	"rfabric/internal/plan"
	"rfabric/internal/sql"
	"rfabric/internal/table"
)

// lab is one experiment's catalog: a simulated system, the tables placed in
// its address space, and their columnar copies. Arena order is part of the
// modeled result — addresses pick cache sets and DRAM rows — so tables and
// copies are allocated exactly when an experiment asks for them, and every
// run allocates its delivery windows after them.
type lab struct {
	sys    *engine.System
	tables []*table.Table // in placement order
	stores map[*table.Table]*colstore.Store
}

// access picks the access path a run reads one table through, e.g.
// lab.rm or a closure returning an RMEngine with its offload knobs set.
type access func(*table.Table) engine.Source

func newLab(cfg engine.SystemConfig) (*lab, error) {
	sys, err := engine.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &lab{sys: sys, stores: map[*table.Table]*colstore.Store{}}, nil
}

// place allocates a table of rows rows at the arena's next address and
// fills it with gen(tbl, rows, seed).
func (l *lab) place(name string, sch *geometry.Schema, rows int,
	gen func(*table.Table, int, int64) error, seed int64, opts ...table.Option) (*table.Table, error) {
	// An empty table reports the row stride, MVCC header included.
	shape, err := table.New(name, sch, opts...)
	if err != nil {
		return nil, err
	}
	base := l.sys.Arena.Alloc(int64(rows * shape.RowStride()))
	tbl, err := table.New(name, sch, append(opts, table.WithCapacity(rows), table.WithBaseAddr(base))...)
	if err != nil {
		return nil, err
	}
	if err := gen(tbl, rows, seed); err != nil {
		return nil, err
	}
	l.tables = append(l.tables, tbl)
	return tbl, nil
}

// columnar builds the COL baseline's copy of every placed table, in
// placement order.
func (l *lab) columnar() error {
	for _, t := range l.tables {
		s, err := colstore.FromTable(t, l.sys.Arena)
		if err != nil {
			return err
		}
		l.stores[t] = s
	}
	return nil
}

// table returns the placed table of that name, or nil.
func (l *lab) table(name string) *table.Table {
	for _, t := range l.tables {
		if t.Name() == name {
			return t
		}
	}
	return nil
}

func (l *lab) schema(name string) (*geometry.Schema, error) {
	if t := l.table(name); t != nil {
		return t.Schema(), nil
	}
	return nil, fmt.Errorf("experiments: unknown table %q", name)
}

// lower parses a statement and lowers it against the placed tables.
func (l *lab) lower(text string) (*plan.Node, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return sql.LowerCatalog(st, l.schema)
}

// The three paper access paths.
func (l *lab) row(t *table.Table) engine.Source { return &engine.RowEngine{Tbl: t, Sys: l.sys} }
func (l *lab) col(t *table.Table) engine.Source {
	return &engine.ColEngine{Store: l.stores[t], Sys: l.sys}
}
func (l *lab) rm(t *table.Table) engine.Source { return &engine.RMEngine{Tbl: t, Sys: l.sys} }

// builds makes one build source per join stage, in stage order.
func (l *lab) builds(jp *engine.JoinPlan, path access) []engine.Source {
	out := make([]engine.Source, len(jp.Stages))
	for i, stg := range jp.Stages {
		out[i] = path(l.table(stg.Side.Table))
	}
	return out
}

// run executes a lowered plan from cold state — a single-table plan through
// engine.Run, a join through JoinExec — with every side read through path,
// its sinks finished and charged as the façade does.
func (l *lab) run(root *plan.Node, path access) (*engine.Result, error) {
	var src engine.Source
	var exec func() (*engine.Result, error)
	var sk engine.Sinks
	if root.HasJoin() {
		jp, s, err := engine.FromJoinPlan(root, l.schema)
		if err != nil {
			return nil, err
		}
		src, sk = path(l.table(jp.Probe.Table)), s
		exec = (&engine.JoinExec{Plan: jp, Probe: src, Builds: l.builds(jp, path)}).Execute
	} else {
		q, s, err := engine.FromPlan(root)
		if err != nil {
			return nil, err
		}
		src, sk = path(l.table(root.Scan().Table)), s
		exec = func() (*engine.Result, error) { return engine.Run(src, q) }
	}
	l.sys.ResetState()
	r, err := exec()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src.Name(), err)
	}
	engine.ApplySinks(r, sk)
	return r, nil
}

// runAll runs root on ROW, COL and RM, each from cold state, checks that
// the results agree, and returns them keyed by engine name. The placed
// tables need their columnar copies.
func (l *lab) runAll(root *plan.Node) (map[string]*engine.Result, error) {
	out := make(map[string]*engine.Result, 3)
	var ref *engine.Result
	for _, path := range []access{l.row, l.col, l.rm} {
		r, err := l.run(root, path)
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = r
		} else if err := r.EquivalentTo(ref, 1e-9); err != nil {
			return nil, fmt.Errorf("%s result diverged from %s: %w", r.Engine, ref.Engine, err)
		}
		out[r.Engine] = r
	}
	return out, nil
}

// The micro table behind Figures 5 and 6 and most ablations: int32
// columns c00, c01, ... of uniform values in [0,1000).

func microSchema(cols int) *geometry.Schema {
	defs := make([]geometry.Column, cols)
	for i := range defs {
		defs[i] = geometry.Column{Name: fmt.Sprintf("c%02d", i), Type: geometry.Int32, Width: 4}
	}
	return geometry.MustSchema(defs...)
}

// microLab places a cols-wide micro table and its columnar copy on a
// fresh system.
func microLab(cfg engine.SystemConfig, cols, rows int, seed int64) (*lab, error) {
	l, err := newLab(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := l.place("micro", microSchema(cols), rows, genMicro, seed); err != nil {
		return nil, err
	}
	return l, l.columnar()
}

// genMicro draws every value row-major from seed.
func genMicro(tbl *table.Table, rows int, seed int64) error {
	return fillMicro(tbl, rows, newRand(seed), nil)
}

// genKeyed makes c00 a random permutation of [0,rows) — an unclustered
// key — and draws the other columns like genMicro.
func genKeyed(tbl *table.Table, rows int, seed int64) error {
	rng := newRand(seed)
	return fillMicro(tbl, rows, rng, rng.Perm(rows))
}

func fillMicro(tbl *table.Table, rows int, rng *rand.Rand, key []int) error {
	cols := tbl.Schema().NumColumns()
	buf := make([]byte, tbl.Schema().RowBytes())
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			var v int
			if c == 0 && key != nil {
				v = key[r]
			} else {
				v = rng.Intn(1000)
			}
			binary.LittleEndian.PutUint32(buf[c*4:], uint32(v))
		}
		if _, err := tbl.AppendRaw(1, buf); err != nil {
			return err
		}
	}
	return nil
}

// microSQL projects cols from the micro table and gives each where column
// a predicate every row passes.
func microSQL(cols, where []int) string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = fmt.Sprintf("c%02d", c)
	}
	text := "SELECT " + strings.Join(names, ", ") + " FROM micro"
	preds := make([]string, len(where))
	for i, c := range where {
		preds[i] = fmt.Sprintf("c%02d >= 0", c)
	}
	if len(preds) > 0 {
		text += " WHERE " + strings.Join(preds, " AND ")
	}
	return text
}

// seq returns [start, start+n) column indices.
func seq(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

// newRand returns the deterministic source all experiment generators share.
func newRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
