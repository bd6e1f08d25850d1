package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Chrome Trace Event Format export: a finished Trace (span tree plus the
// optional cycle-sampled Timeline) renders as a JSON object loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Timestamps are modeled CPU
// cycles used as the trace's microsecond unit — absolute wall time is
// meaningless in a discrete-event model, relative placement is everything.
//
// Layout rules mirror the attribution rules of the span tree:
//
//   - non-detail spans lay out sequentially on the query lane: a child
//     starts where its elder siblings' attributed cycles end, so the root
//     slice's duration equals Root.AttributedCycles — which reconciles
//     exactly with Breakdown.TotalCycles;
//   - detail subtrees (per-morsel executions that overlap the
//     makespan) render on per-worker lanes at the starts the deterministic
//     list schedule assigned, when their roots carry the worker/start_cycles
//     attributes, and on a shared detail lane otherwise;
//   - timeline samples render as counter tracks (row-buffer hit rate, bank
//     occupancy, cache miss ratio, fabric occupancy/stall, workers busy).

// Lane (tid) assignment inside the single trace process.
const (
	chromeTidQuery  = 0  // sequential span layout
	chromeTidDetail = 9  // detail subtrees without schedule attributes
	chromeTidWorker = 10 // worker w renders on tid chromeTidWorker + w
)

// chromeEvent is one Trace Event. Field order is fixed by the struct, and
// Args is rendered with sorted keys by encoding/json, so output is
// byte-deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
	Cat  string         `json:"cat,omitempty"`
}

// chromeTrace is the wrapping JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

// WriteChrome writes the trace in Chrome Trace Event Format.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("obs: no trace to export")
	}
	b := &chromeBuilder{pid: 1, workerLanes: map[int]bool{}}
	b.meta(0, "process_name", map[string]any{"name": "rfabric query"})
	b.thread(chromeTidQuery, "query")
	b.layoutSpan(t.Root, 0, chromeTidQuery)
	if t.Timeline != nil {
		b.counters(t.Timeline)
	}
	out := chromeTrace{
		TraceEvents:     b.events,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"clock":        "modeled CPU cycles (1 cycle rendered as 1 us)",
			"query":        t.Query,
			"engine":       t.Engine,
			"total_cycles": t.TotalCycles,
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

type chromeBuilder struct {
	pid         int
	events      []chromeEvent
	workerLanes map[int]bool
	usedDetail  bool
}

func (b *chromeBuilder) meta(tid int, name string, args map[string]any) {
	b.events = append(b.events, chromeEvent{Name: name, Ph: "M", Pid: b.pid, Tid: tid, Args: args})
}

func (b *chromeBuilder) thread(tid int, name string) {
	b.meta(tid, "thread_name", map[string]any{"name": name})
	b.meta(tid, "thread_sort_index", map[string]any{"sort_index": tid})
}

// layoutSpan emits s as a complete event at start on lane tid and lays out
// its children: non-detail children sequentially after s's own cycles,
// detail subtrees on worker or detail lanes.
func (b *chromeBuilder) layoutSpan(s *Span, start uint64, tid int) {
	args := map[string]any{}
	if s.Cycles > 0 {
		args["own_cycles"] = s.Cycles
	}
	if s.Bytes > 0 {
		args["bytes"] = s.Bytes
	}
	for _, a := range s.Attrs {
		args[a.Key] = a.Value
	}
	if len(args) == 0 {
		args = nil
	}
	ev := chromeEvent{Name: s.Name, Ph: "X", Ts: start, Dur: s.AttributedCycles(), Pid: b.pid, Tid: tid, Args: args}
	if s.Detail {
		ev.Cat = "detail"
	}
	b.events = append(b.events, ev)

	cursor := start + s.Cycles
	for _, c := range s.Children {
		if c.Detail {
			b.layoutDetail(c, start)
			continue
		}
		b.layoutSpan(c, cursor, tid)
		cursor += c.AttributedCycles()
	}
}

// layoutDetail places a detail subtree. Children carrying the deterministic
// schedule attributes (worker, start_cycles) land on per-worker lanes at
// their scheduled offsets from the parent's start; the rest overlap the
// parent on the shared detail lane.
func (b *chromeBuilder) layoutDetail(d *Span, parentStart uint64) {
	if len(d.Children) == 0 {
		b.detailLane()
		b.layoutSpan(d, parentStart, chromeTidDetail)
		return
	}
	for _, c := range d.Children {
		ws, okW := c.Attr("worker")
		ss, okS := c.Attr("start_cycles")
		if okW && okS {
			wkr, errW := strconv.Atoi(ws)
			st, errS := strconv.ParseUint(ss, 10, 64)
			if errW == nil && errS == nil && wkr >= 0 {
				tid := chromeTidWorker + wkr
				if !b.workerLanes[wkr] {
					b.workerLanes[wkr] = true
					b.thread(tid, fmt.Sprintf("worker %d", wkr))
				}
				b.layoutSpan(c, parentStart+st, tid)
				continue
			}
		}
		b.detailLane()
		b.layoutSpan(c, parentStart, chromeTidDetail)
	}
}

func (b *chromeBuilder) detailLane() {
	if !b.usedDetail {
		b.usedDetail = true
		b.thread(chromeTidDetail, "detail")
	}
}

// counters renders the timeline as counter tracks. Each sample's value is
// emitted at the window's start, so the track holds the value across the
// window it was measured over.
func (b *chromeBuilder) counters(tl *Timeline) {
	hasWorkers := len(tl.WorkerSlices()) > 0
	for _, s := range tl.Samples() {
		ts := s.Cycle - s.Window
		b.counter("row_buffer_hit_rate", ts, map[string]any{"rate": s.RowBufferHitRate})
		b.counter("cache_miss_ratio", ts, map[string]any{"ratio": s.CacheMissRatio})
		b.counter("fabric_pipeline", ts, map[string]any{"busy": s.FabricOccupancy, "stall": s.FabricStall})
		if len(s.BankOccupancy) > 0 {
			args := make(map[string]any, len(s.BankOccupancy))
			for i, v := range s.BankOccupancy {
				args[fmt.Sprintf("bank%02d", i)] = v
			}
			b.counter("dram_bank_occupancy", ts, args)
		}
		if hasWorkers {
			b.counter("workers_busy", ts, map[string]any{"workers": s.WorkersBusy})
		}
	}
}

func (b *chromeBuilder) counter(name string, ts uint64, args map[string]any) {
	b.events = append(b.events, chromeEvent{Name: name, Ph: "C", Ts: ts, Pid: b.pid, Tid: chromeTidQuery, Args: args})
}
