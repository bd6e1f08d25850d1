package sql

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"rfabric/internal/engine"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/plan"
)

// Lower lowers a single-table statement against its table's schema; see
// LowerCatalog, which it enters with a one-table catalog.
func Lower(st *Stmt, schema *geometry.Schema) (*plan.Node, error) {
	if len(st.Joins) > 0 {
		return nil, errors.New("sql: statement joins tables; lower it with LowerCatalog")
	}
	return LowerCatalog(st, func(string) (*geometry.Schema, error) { return schema, nil })
}

// resolveSortKeys maps the statement's ORDER BY items onto the aggregate's
// output: a named key must be one of the GROUP BY columns; a 1-based
// ordinal names a select-list position (an aggregate item sorts by that
// aggregate, a bare column by its group key).
func resolveSortKeys(st *Stmt, groupBy []int, res *colResolver) ([]plan.SortKey, error) {
	groupKeyOf := func(col int) (int, bool) {
		i := slices.Index(groupBy, col)
		return i, i >= 0
	}
	keys := make([]plan.SortKey, len(st.OrderBy))
	for i, it := range st.OrderBy {
		k := plan.SortKey{Key: -1, Agg: -1, Desc: it.Desc}
		switch {
		case it.Ordinal > 0:
			if it.Ordinal > len(st.Items) {
				return nil, fmt.Errorf("sql: ORDER BY ordinal %d exceeds the %d select items", it.Ordinal, len(st.Items))
			}
			item := st.Items[it.Ordinal-1]
			if item.Agg != nil {
				agg := 0
				for _, prev := range st.Items[:it.Ordinal-1] {
					if prev.Agg != nil {
						agg++
					}
				}
				k.Agg = agg
			} else {
				col, err := res.resolve(item.Column)
				if err != nil {
					return nil, err
				}
				idx, ok := groupKeyOf(col)
				if !ok {
					return nil, fmt.Errorf("sql: ORDER BY column %q is not a group key", item.Column)
				}
				k.Key = idx
			}
		default:
			col, err := res.resolve(it.Column)
			if err != nil {
				return nil, err
			}
			idx, ok := groupKeyOf(col)
			if !ok {
				return nil, fmt.Errorf("sql: ORDER BY column %q is not a group key", it.Column)
			}
			k.Key = idx
		}
		keys[i] = k
	}
	return keys, nil
}

// SchemaLookup resolves a table name to its schema — the catalog interface
// LowerCatalog plans against.
type SchemaLookup func(table string) (*geometry.Schema, error)

// joinResolver resolves (possibly qualified) column names over the combined
// namespace of joined tables. Bare names must be globally unique; qualified
// names pin the table.
func joinResolver(tables []string, schemas []*geometry.Schema, offsets []int, combined *geometry.Schema) *colResolver {
	return &colResolver{sch: combined, resolve: func(name string) (int, error) {
		if tbl, col, ok := strings.Cut(name, "."); ok {
			for ti, t := range tables {
				if t != tbl {
					continue
				}
				c, found := schemas[ti].Lookup(col)
				if !found {
					return 0, fmt.Errorf("sql: unknown column %q", name)
				}
				return offsets[ti] + c, nil
			}
			return 0, fmt.Errorf("sql: unknown table %q in column %q", tbl, name)
		}
		hit := -1
		for ti, s := range schemas {
			if c, found := s.Lookup(name); found {
				if hit >= 0 {
					return 0, fmt.Errorf("sql: column %q is ambiguous; qualify it as table.column", name)
				}
				hit = offsets[ti] + c
			}
		}
		if hit < 0 {
			return 0, fmt.Errorf("sql: unknown column %q", name)
		}
		return hit, nil
	}}
}

// LowerCatalog lowers a statement against a catalog to the physical plan
// IR. It is the one lowering routine; a single-table statement is the case
// with zero JOIN clauses. The FROM table is the probe (or only) side and
// each JOIN clause a build side; every WHERE conjunct routes to the side
// that owns its column, and the consumption and any ORDER BY / LIMIT sinks
// run over the combined namespace:
//
//	Scan → [Filter] → [Join]* → (Project | Aggregate) → [OrderBy] → [Limit]
//
// AS OF lands on the Scan of a single-table statement. The Scans' sources
// are left blank for the optimizer (or explicit dispatch) to stamp.
func LowerCatalog(st *Stmt, lookup SchemaLookup) (*plan.Node, error) {
	join := len(st.Joins) > 0
	if join && st.Snapshot != nil {
		return nil, errors.New("sql: AS OF applies to single-table statements, not joins")
	}
	tables := make([]string, 1, 1+len(st.Joins))
	tables[0] = st.Table
	for _, jc := range st.Joins {
		if slices.Contains(tables, jc.Table) {
			return nil, fmt.Errorf("sql: table %q joined twice", jc.Table)
		}
		tables = append(tables, jc.Table)
	}
	schemas := make([]*geometry.Schema, len(tables))
	for i, t := range tables {
		sch, err := lookup(t)
		if err != nil {
			return nil, err
		}
		schemas[i] = sch
	}
	combined, offsets := schemas[0], []int{0}
	res := tableResolver(st.Table, combined)
	if join {
		var err error
		if combined, offsets, err = engine.JoinSchema(tables, schemas); err != nil {
			return nil, err
		}
		res = joinResolver(tables, schemas, offsets, combined)
	}

	proj, groupBy, aggs, err := planConsume(st, res)
	if err != nil {
		return nil, err
	}

	// Route each WHERE conjunct to the side that owns its column, localized
	// to that side's schema.
	sideSel := make([]expr.Conjunction, len(tables))
	for _, cmp := range st.Where {
		p, err := planComparison(cmp, res)
		if err != nil {
			return nil, err
		}
		s := 0
		for i := 1; i < len(offsets); i++ {
			if p.Col >= offsets[i] {
				s = i
			}
		}
		p.Col -= offsets[s]
		sideSel[s] = append(sideSel[s], p)
	}

	// Assemble the IR. Side nodes carry their table schema; nodes above the
	// sides carry the combined namespace, so Explain renders both correctly.
	side := func(i int) *plan.Node {
		n := plan.NewScan(tables[i], "", nil)
		n.Sch = schemas[i]
		if len(sideSel[i]) > 0 {
			n = n.Filter(sideSel[i])
			n.Sch = schemas[i]
		}
		return n
	}
	root := side(0)
	root.Scan().Snapshot = st.Snapshot
	for k, jc := range st.Joins {
		// One side of ON must name a column of the newly joined table (the
		// build key), the other a column of an earlier table (the probe
		// key, in combined coordinates).
		l, err := res.resolve(jc.LeftCol)
		if err != nil {
			return nil, err
		}
		r, err := res.resolve(jc.RightCol)
		if err != nil {
			return nil, err
		}
		start, end := offsets[k+1], offsets[k+1]+schemas[k+1].NumColumns()
		inNew := func(c int) bool { return c >= start && c < end }
		var probeKey, buildKey int
		switch {
		case inNew(l) && !inNew(r) && r < start:
			buildKey, probeKey = l-start, r
		case inNew(r) && !inNew(l) && l < start:
			buildKey, probeKey = r-start, l
		default:
			return nil, fmt.Errorf("sql: JOIN %s ON %s = %s must compare a column of %q with a column of an earlier table",
				jc.Table, jc.LeftCol, jc.RightCol, jc.Table)
		}
		root = root.Join(side(k+1), probeKey, buildKey)
		root.Sch = combined
	}
	if len(aggs) > 0 {
		root = root.Aggregate(groupBy, aggs)
	} else {
		root = root.Project(proj)
	}
	root.Sch = combined
	if len(st.OrderBy) > 0 {
		keys, err := resolveSortKeys(st, groupBy, res)
		if err != nil {
			return nil, err
		}
		root = root.OrderBy(keys)
		root.Sch = combined
	}
	if st.HasLimit {
		root = root.Limit(st.Limit)
		root.Sch = combined
	}

	// Validate through the engine lowering, which also stamps the columns
	// each Scan must deliver: a join through its executable plan, a single
	// table through the query its pipeline runs.
	if join {
		if _, _, err := engine.FromJoinPlan(root, lookup); err != nil {
			return nil, err
		}
		return root, nil
	}
	q, _, err := engine.FromPlan(root)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(combined); err != nil {
		return nil, err
	}
	root.Scan().Cols = q.NeededColumns()
	return root, nil
}
