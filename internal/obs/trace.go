package obs

import (
	"fmt"
	"io"
	"sync"
)

// Attr is one key-value annotation on a span. Attrs are kept as an ordered
// slice (not a map) so rendering and JSON output are deterministic.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one node of a query's trace tree. Cycles carries the modeled
// cycles attributed directly to this span; attribution leaves are laid out
// so that a root's AttributedCycles reconciles exactly with the run's
// Breakdown.TotalCycles. Detail subtrees (per-morsel executions that
// overlap in modeled time) are excluded from that sum — their own
// roots reconcile against their own partial breakdowns instead.
type Span struct {
	Name string `json:"name"`
	// Cycles is the modeled-cycle attribution of this span itself
	// (exclusive of children).
	Cycles uint64 `json:"cycles,omitempty"`
	// Bytes is the byte attribution of this span itself.
	Bytes uint64 `json:"bytes,omitempty"`
	// Detail marks an informational subtree whose cycles overlap the
	// attributed time (parallel morsels) rather than adding to it.
	Detail   bool    `json:"detail,omitempty"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// AddChild appends and returns a named child span. Nil-safe.
func (s *Span) AddChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name}
	s.Children = append(s.Children, c)
	return c
}

// Leaf appends an attribution leaf carrying cycles and bytes. Nil-safe.
func (s *Span) Leaf(name string, cycles, bytes uint64) *Span {
	c := s.AddChild(name)
	if c != nil {
		c.Cycles = cycles
		c.Bytes = bytes
	}
	return c
}

// Adopt attaches an independently built subtree (a per-morsel trace)
// under s. Nil-safe in both directions.
func (s *Span) Adopt(child *Span) {
	if s == nil || child == nil {
		return
	}
	s.Children = append(s.Children, child)
}

// SetAttr records (or overwrites) an annotation. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Value = value
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// Attr returns the value of an annotation.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// AttributedCycles sums this span's own cycles plus all non-detail
// descendants' — the quantity that reconciles with Breakdown.TotalCycles.
func (s *Span) AttributedCycles() uint64 {
	if s == nil {
		return 0
	}
	total := s.Cycles
	for _, c := range s.Children {
		if c.Detail {
			continue
		}
		total += c.AttributedCycles()
	}
	return total
}

// AttributedBytes sums this span's own bytes plus all non-detail
// descendants'.
func (s *Span) AttributedBytes() uint64 {
	if s == nil {
		return 0
	}
	total := s.Bytes
	for _, c := range s.Children {
		if c.Detail {
			continue
		}
		total += c.AttributedBytes()
	}
	return total
}

// Find returns the first span named name in a pre-order walk.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Tracer builds one query's span tree through Begin/End events. It is
// single-goroutine state, like the simulated System it observes; parallel
// executors give each worker its own Tracer and Adopt the sub-roots in
// deterministic order afterwards. A nil *Tracer no-ops every method — the
// zero-overhead opt-out.
type Tracer struct {
	root *Span
	// stack holds the open spans; Begin pushes, End pops.
	stack []*Span
	// tl is the optional cycle-sampled Timeline riding along with this
	// trace; engines reach it through Timeline() so the sampler flows to
	// every layer the tracer already reaches without new plumbing.
	tl *Timeline
}

// NewTracer starts a trace rooted at a span named name.
func NewTracer(name string) *Tracer {
	root := &Span{Name: name}
	return &Tracer{root: root, stack: []*Span{root}}
}

// Begin opens a child span under the innermost open span and returns it.
// Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	s := t.stack[len(t.stack)-1].AddChild(name)
	t.stack = append(t.stack, s)
	return s
}

// End closes the innermost open span. The root never pops.
func (t *Tracer) End() {
	if t == nil || len(t.stack) <= 1 {
		return
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// Current returns the innermost open span (the root before any Begin).
func (t *Tracer) Current() *Span {
	if t == nil {
		return nil
	}
	return t.stack[len(t.stack)-1]
}

// Root returns the trace's root span.
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// AttachTimeline hangs a cycle-sampled Timeline on the tracer. Nil-safe.
func (t *Tracer) AttachTimeline(tl *Timeline) {
	if t == nil {
		return
	}
	t.tl = tl
}

// Timeline returns the attached Timeline (nil when sampling is off —
// every Timeline hook is nil-safe, so callers use the result directly).
func (t *Tracer) Timeline() *Timeline {
	if t == nil {
		return nil
	}
	return t.tl
}

// Trace is one finished query trace: the EXPLAIN ANALYZE artifact.
type Trace struct {
	Query  string `json:"query,omitempty"`
	Engine string `json:"engine,omitempty"`
	// TotalCycles is the run's Breakdown.TotalCycles, the number the root
	// span's AttributedCycles reconciles against.
	TotalCycles uint64 `json:"total_cycles"`
	// WallNanos and AllocBytes are the statement's real wall-clock
	// duration and heap-allocation delta, compilation included — the
	// host-side cost riding alongside the modeled cycles, and the same
	// figures the statement store and windows record for the statement.
	WallNanos  int64  `json:"wall_ns,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Root       *Span  `json:"root"`
	// Timeline is the optional cycle-sampled hardware time series recorded
	// alongside the span tree (WithTimeline trace option).
	Timeline *Timeline `json:"timeline,omitempty"`
}

// Render writes the span tree as an EXPLAIN ANALYZE style text block:
// per-node cycles and bytes, then attributes.
func (t *Trace) Render(w io.Writer) {
	if t == nil || t.Root == nil {
		fmt.Fprintln(w, "(no trace)")
		return
	}
	fmt.Fprintf(w, "TRACE %s engine=%s total_cycles=%d attributed=%d\n",
		t.Query, t.Engine, t.TotalCycles, t.Root.AttributedCycles())
	renderSpan(w, t.Root, 0)
}

func renderSpan(w io.Writer, s *Span, depth int) {
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	fmt.Fprintf(w, "- %s", s.Name)
	if s.Cycles > 0 {
		fmt.Fprintf(w, " cycles=%d", s.Cycles)
	}
	if s.Bytes > 0 {
		fmt.Fprintf(w, " bytes=%d", s.Bytes)
	}
	if s.Detail {
		io.WriteString(w, " [detail]")
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(w, " %s=%s", a.Key, a.Value)
	}
	io.WriteString(w, "\n")
	for _, c := range s.Children {
		renderSpan(w, c, depth+1)
	}
}

// LastTrace is a concurrency-safe slot for the most recent trace, the
// backing store of the /debug/trace/last endpoint.
type LastTrace struct {
	mu sync.Mutex
	t  *Trace
}

// Store replaces the held trace.
func (l *LastTrace) Store(t *Trace) {
	if l == nil || t == nil {
		return
	}
	l.mu.Lock()
	l.t = t
	l.mu.Unlock()
}

// Load returns the held trace (nil if none yet).
func (l *LastTrace) Load() *Trace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t
}
