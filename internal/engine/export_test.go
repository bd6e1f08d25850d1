package engine

// FinishPartial finishes a RunPartial result's unfinished aggregation under
// q (its aggregates and sinks), the step finishAggs takes at the end of a
// serial run, so a benchmark can time the finisher alone. The partial is
// left as it was.
func FinishPartial(p *Result, q Query) *Result {
	r := &Result{}
	r.finishAggs(*p.part, q, false)
	return r
}
