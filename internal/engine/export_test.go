package engine

// FinishPartial finishes a RunPartial result's unfinished aggregation under
// sk, the step finishAggs takes at the end of a serial run, so a benchmark
// can time the finisher alone. The partial is left as it was.
func FinishPartial(p *Result, terms []AggTerm, sk Sinks) *Result {
	r := &Result{}
	r.finishAggs(*p.part, terms, sk, false)
	return r
}
