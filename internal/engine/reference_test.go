package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// The test references fold boxed rows on their own, without the engine's
// fold or finisher, so a fault shared by every engine path still shows.

// refFold folds rows, one boxed value per schema column, into q's result
// shape: each projection entry's value into the checksum through the vec
// hashes, or the rows into one vec.AggState per aggregate term, per group
// when grouped. Groups come out in refKeyCmp's order; q.Sinks are not
// applied (stableSinks is their reference).
func refFold(q Query, rows [][]table.Value) *Result {
	res := &Result{Engine: "REF", RowsPassed: int64(len(rows))}
	if len(q.Aggregates) == 0 {
		for _, row := range rows {
			for _, c := range q.Projection {
				res.Checksum += refHash(c, row[c])
			}
		}
		return res
	}
	type group struct {
		key    []table.Value
		states []vec.AggState
		count  int64
	}
	newGroup := func(key []table.Value) *group {
		return &group{key: key, states: make([]vec.AggState, len(q.Aggregates))}
	}
	all := newGroup(nil)
	var groups []*group
	for _, row := range rows {
		g := all
		if len(q.GroupBy) > 0 {
			key := make([]table.Value, len(q.GroupBy))
			for i, c := range q.GroupBy {
				key[i] = row[c]
			}
			i, found := slices.BinarySearchFunc(groups, key, func(g *group, k []table.Value) int { return refKeyCmp(g.key, k) })
			if !found {
				groups = slices.Insert(groups, i, newGroup(key))
			}
			g = groups[i]
		}
		g.count++
		for i, t := range q.Aggregates {
			if t.Arg == nil {
				g.states[i].AddCount(1)
				continue
			}
			g.states[i].Add(t.Arg.EvalF(func(c int) table.Value { return row[c] }))
		}
	}
	finish := func(states []vec.AggState) []table.Value {
		out := make([]table.Value, len(states))
		for i, st := range states {
			out[i] = st.Result(q.Aggregates[i].Kind)
		}
		return out
	}
	if len(q.GroupBy) == 0 {
		res.Aggs = finish(all.states)
		return res
	}
	for _, g := range groups {
		res.Groups = append(res.Groups, GroupRow{Key: g.key, Aggs: finish(g.states), Count: g.count})
	}
	return res
}

// refHash is column col's value v folded into a projection checksum.
func refHash(col int, v table.Value) uint64 {
	switch v.Type {
	case geometry.Float64:
		return vec.HashF64(col, v.Float)
	case geometry.Char:
		return vec.HashChar(col, v.Bytes)
	default:
		return vec.HashI64(col, v.Int)
	}
}

// refKeyCmp is the canonical group order's rule stated on boxed key values
// (internal/vec's TestGroupKeyOrderMatchesReference holds the group-key
// format to the same rule): key columns in turn, DOUBLE by cmp.Compare (NaN
// first, -0 == +0), integers by value, CHAR by pad-trimmed bytes; keys
// equal on every column by those rules are ordered by their DOUBLEs' raw
// bits, little-endian, column by column. Keys compare 0 exactly when they
// are one group.
func refKeyCmp(a, b []table.Value) int {
	for k := range a {
		var r int
		switch a[k].Type {
		case geometry.Float64:
			r = cmp.Compare(a[k].Float, b[k].Float)
		case geometry.Char:
			r = bytes.Compare(vec.TrimPad(a[k].Bytes), vec.TrimPad(b[k].Bytes))
		default:
			r = cmp.Compare(a[k].Int, b[k].Int)
		}
		if r != 0 {
			return r
		}
	}
	for k := range a {
		if a[k].Type == geometry.Float64 {
			x := binary.LittleEndian.AppendUint64(nil, math.Float64bits(a[k].Float))
			y := binary.LittleEndian.AppendUint64(nil, math.Float64bits(b[k].Float))
			if r := bytes.Compare(x, y); r != 0 {
				return r
			}
		}
	}
	return 0
}

// refKeysMatch is SQL equality of two join keys of one family: integers
// (across widths) by value, DOUBLE by == (NaN never matches, -0 matches
// +0), CHAR by pad-trimmed bytes.
func refKeysMatch(a, b table.Value) bool {
	switch a.Type {
	case geometry.Float64:
		return a.Float == b.Float
	case geometry.Char:
		return bytes.Equal(vec.TrimPad(a.Bytes), vec.TrimPad(b.Bytes))
	default:
		return a.Int == b.Int
	}
}
