// Package obs is the unified observability layer of the reproduction: a
// lock-cheap metrics registry the simulated components (DRAM, caches,
// fabric, engines) publish into, per-query trace spans that carry
// modeled-cycle and byte attributions, and machine-readable exporters
// (Prometheus text and JSON) plus an HTTP surface for live inspection.
//
// The paper's entire argument rests on where cycles and bytes go (§V:
// demand vs. pipeline paths, DRAM occupancy floors, fabric gather traffic).
// This package turns those numbers — previously locked inside per-component
// Stats structs and a terminal Breakdown — into named series and span trees
// that reconcile exactly with the cost model, the same observability-first
// posture ReProVide's runtime-statistics feedback and Farview's
// per-operator byte accounting take.
//
// Everything here is optional and cheap to leave off: a nil *Tracer no-ops
// every method, and a disabled Registry turns every publish into a single
// atomic load. The simulated hot paths are untouched unless a caller asks
// for a traced run.
package obs

import (
	"sort"
	"strconv"
)

// Labels is one metric series' key-value identity (engine kind, table,
// component). Series with the same name and different labels are distinct.
type Labels map[string]string

// LabelSet is a label set rendered once into the stable `{k="v",...}` form
// used both as the registry key and in the Prometheus exposition. The empty
// set renders as "".
type LabelSet string

// Render renders the labels, keys sorted.
func (l Labels) Render() LabelSet {
	if len(l) == 0 {
		return ""
	}
	ks := make([]string, 0, len(l))
	for k := range l {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	b := make([]byte, 0, 64)
	b = append(b, '{')
	for i, k := range ks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l[k])
	}
	b = append(b, '}')
	return LabelSet(b)
}
