// Package cache simulates a two-level set-associative cache hierarchy with a
// stream prefetcher. It is the instrument that makes the paper's phenomena
// observable in software: row-store scans pollute lines with unwanted
// attributes, columnar scans ride the prefetcher until they exceed its
// stream budget, and Relational Memory ships densely packed lines that waste
// no cache real estate (Relational Fabric, ICDE 2023, §II, §V).
//
// All loads are read-path only: the experiments in the paper are read-only
// scans, and the write path of the base data is charged separately by the
// table layer.
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"rfabric/internal/dram"
	"rfabric/internal/obs"
)

// LevelConfig sizes one cache level.
type LevelConfig struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineBytes int // line size (must match across levels and DRAM)
	HitCycles int // access latency on hit
}

// Validate reports configuration errors.
func (c LevelConfig) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: LineBytes must be a positive power of two, got %d", c.LineBytes)
	}
	if c.Ways <= 0 || c.Ways > maxOrder {
		return fmt.Errorf("cache: Ways must be in [1, %d], got %d", maxOrder, c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: SizeBytes %d not divisible into %d-way sets of %d-byte lines", c.SizeBytes, c.Ways, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	if c.HitCycles < 0 {
		return fmt.Errorf("cache: negative HitCycles %d", c.HitCycles)
	}
	return nil
}

// PrefetchConfig parameterizes the stream prefetcher attached to L2.
type PrefetchConfig struct {
	// Streams is how many concurrent sequential streams the prefetcher can
	// track. The paper observes the A53 handles up to four parallel
	// sequential accesses efficiently (§V); beyond that streams evict each
	// other and prefetching degrades.
	Streams int
	// Degree is how many lines ahead a confirmed stream prefetches.
	Degree int
	// TrainHits is how many sequential line accesses confirm a stream.
	TrainHits int
}

// DefaultPrefetch returns the 4-stream prefetcher used throughout the
// reproduction.
func DefaultPrefetch() PrefetchConfig {
	return PrefetchConfig{Streams: 4, Degree: 4, TrainHits: 2}
}

// Validate reports configuration errors.
func (c PrefetchConfig) Validate() error {
	if c.Streams < 0 || c.Streams > maxOrder || c.Degree < 0 || c.TrainHits < 1 {
		return fmt.Errorf("cache: bad prefetch config %+v", c)
	}
	return nil
}

// HierarchyConfig configures the full L1→L2→DRAM read path.
type HierarchyConfig struct {
	L1       LevelConfig
	L2       LevelConfig
	Prefetch PrefetchConfig

	// MLPWindow models memory-level parallelism: a demand miss that follows
	// another miss within this many loads, and that targets a different DRAM
	// bank, overlaps with it and exposes only OverlapMissCycles of latency
	// instead of the full DRAM access time. Zero disables overlap (fully
	// serialized misses).
	MLPWindow int
	// OverlapMissCycles is the exposed latency of an overlapped miss.
	OverlapMissCycles int

	// FabricHitCycles is the extra latency of the first demand hit on a
	// line the fabric delivered: reading freshly DMA-ed device data pays a
	// coherence/aperture penalty a plain L2 hit does not.
	FabricHitCycles int
}

// DefaultHierarchy mirrors the paper's target platform proportions
// (32 KB L1, 1 MB shared L2) with round-number latencies.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1:                LevelConfig{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitCycles: 1},
		L2:                LevelConfig{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, HitCycles: 12},
		Prefetch:          DefaultPrefetch(),
		MLPWindow:         8,
		OverlapMissCycles: 24,
		FabricHitCycles:   8,
	}
}

// Validate reports configuration errors.
func (c HierarchyConfig) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("cache: L1 line %d != L2 line %d", c.L1.LineBytes, c.L2.LineBytes)
	}
	if c.MLPWindow < 0 || (c.MLPWindow > 0 && c.OverlapMissCycles <= 0) {
		return fmt.Errorf("cache: bad MLP config window=%d overlap=%d", c.MLPWindow, c.OverlapMissCycles)
	}
	if c.FabricHitCycles < 0 {
		return fmt.Errorf("cache: negative FabricHitCycles %d", c.FabricHitCycles)
	}
	return c.Prefetch.Validate()
}

// Stats accumulates per-hierarchy counters.
type Stats struct {
	Loads            uint64
	L1Hits           uint64
	L2Hits           uint64
	PrefetchHits     uint64 // L2 hits satisfied by a prefetched line
	DRAMFills        uint64 // demand fills that went to memory
	OverlappedMisses uint64 // demand misses whose latency overlapped a prior miss
	PrefetchIssued   uint64 // lines prefetched from memory
	FabricFills      uint64 // lines installed by the fabric delivery path
	Cycles           uint64 // total demand-path cycles charged
	BytesFromDRAM    uint64 // demand + prefetch traffic
}

// MissRatio returns demand misses (to DRAM) over loads.
func (s Stats) MissRatio() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.DRAMFills) / float64(s.Loads)
}

// maxOrder bounds a level's associativity and the prefetcher's streams:
// an order ranks them a byte each.
const maxOrder = 256

// A set record's lane bytes: a way's fingerprint, the bits of its line
// above the set index, in the low six bits, and its marks above.
const (
	fpMask = 0x3f
	// prefetchedMark flags a line the prefetcher installed and no demand
	// has hit yet, so hits on it can be attributed.
	prefetchedMark = 0x40
	// fabricNewMark flags a line the fabric delivered that no demand has
	// hit yet; the first demand hit pays FabricHitCycles extra.
	fabricNewMark = 0x80
)

// Byte-lane constants: a set record handles eight ways per word.
const (
	lanesLow  = 0x0101010101010101
	lanesHigh = 0x8080808080808080
	lanesFP   = fpMask * lanesLow
)

// level is one set-associative cache with true-LRU replacement. Each set is
// one contiguous record of words, padded to whole 64-byte lines:
//
//	lanes  one byte per way: fingerprint and marks
//	order  the set's ways from the most (byte 0) to the least (byte
//	       ways-1) recently used
//	tags   one word per way: line index + 1, zero meaning invalid
//
// The victim is the order's last byte, and a touch moves a way's byte to
// the front, shifting the bytes before it back by one: an install, whose
// way is the victim, rotates the whole order. A lookup matches the
// fingerprint against eight lanes per word and compares only the
// candidates' tags. For up to 16 ways, lanes and order share the record's
// first line. The order starts in reverse way order and never-filled ways
// are never touched, so they keep the old end in index order: a victim is
// the least recently used way and, among never-filled ones, the lowest —
// the order recency stamps with first-of-ties gave. Order bytes past the
// last way (when ways is not a multiple of eight) hold 0xff, which names no
// way and which no touch moves.
type level struct {
	cfg       LevelConfig
	ways      int    // cfg.Ways
	words     int    // lane (and order) words per record
	pad       uint64 // the order bytes of the last order word past the last way
	lastShift uint   // the bit offset of the last way's order byte in its word
	tags      int    // offset of the tags within a record
	rec       int    // words per record
	setMask   int64
	setBits   uint
	lineBits  uint
	sets      []uint64
}

func newLevel(cfg LevelConfig) *level {
	n := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	w := cfg.Ways
	l := &level{cfg: cfg, ways: w, setMask: int64(n - 1)}
	l.words = (w + 7) / 8
	l.lastShift, l.pad = orderEnd(w)
	l.tags = 2 * l.words
	l.rec = (l.tags + w + 7) &^ 7
	l.sets = make([]uint64, n*l.rec)
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		l.lineBits++
	}
	for s := n; s > 1; s >>= 1 {
		l.setBits++
	}
	l.reset()
	return l
}

// reset invalidates every way and orders each set's ways by index, way 0
// least recently used.
func (l *level) reset() {
	clear(l.sets)
	for base := 0; base < len(l.sets); base += l.rec {
		l.order(l.record(base)).reset(l.ways)
	}
}

// base returns the index of line's set record in sets.
func (l *level) base(line int64) int { return int(line&l.setMask) * l.rec }

// record returns the set record that starts at base.
func (l *level) record(base int) []uint64 { return l.sets[base : base+l.rec : base+l.rec] }

// getByte and setByte address byte lane i of a run of words.
func getByte(words []uint64, i int) byte { return byte(words[uint(i)/8] >> (uint(i) % 8 * 8)) }

func setByte(words []uint64, i int, b byte) {
	p := &words[uint(i)/8]
	shift := uint(i) % 8 * 8
	*p = *p&^(0xff<<shift) | uint64(b)<<shift
}

// lane returns way w's fingerprint-and-marks byte.
func (l *level) lane(r []uint64, w int) byte { return getByte(r, w) }

func (l *level) setLane(r []uint64, w int, b byte) { setByte(r, w, b) }

// zeroLanes flags the lowest zero byte of x, and possibly bytes above it,
// with their high bit; a word without zero bytes gives 0.
func zeroLanes(x uint64) uint64 { return (x - lanesLow) &^ x & lanesHigh }

// An order ranks up to 256 entries from the most (byte 0) to the least
// recently used, one byte each, eight to a word; bytes past the last entry
// hold 0xff, which names no entry and which no touch moves.
type order []uint64

// orderEnd returns, for an order of n entries, the bit of the last entry
// in its word and that word's bytes past it.
func orderEnd(n int) (last uint, pad uint64) {
	if n%8 != 0 {
		pad = ^uint64(0) << (n % 8 * 8)
	}
	return uint(n-1) % 8 * 8, pad
}

// reset ranks n entries in reverse index order, entry 0 least recently
// used.
func (o order) reset(n int) {
	for p := range len(o) * 8 {
		e := byte(0xff)
		if p < n {
			e = byte(n - 1 - p)
		}
		setByte(o, p, e)
	}
}

// touch makes entry e the most recently used: the entries before it move
// back by one byte, across word boundaries.
func (o order) touch(e int) {
	if byte(o[0]) == byte(e) {
		return
	}
	pat := uint64(e) * lanesLow
	for k, x := range o {
		// The lowest flagged byte is e's; entries appear once.
		if c := zeroLanes(x ^ pat); c != 0 {
			p := bits.TrailingZeros64(c) >> 3
			below := uint64(1)<<(8*p) - 1
			above := ^(below<<8 | 0xff)
			for ; k > 0; k-- {
				o[k] = x&above | (x&below)<<8 | o[k-1]>>56
				x, below, above = o[k-1], ^uint64(0)>>8, 0
			}
			o[0] = x&above | (x&below)<<8 | uint64(e)
			return
		}
	}
}

// rotate makes the least recently used entry, at bit last of the last
// word, the most recently used and returns it; pad is the last word's
// bytes past the last entry.
func (o order) rotate(last uint, pad uint64) int {
	e := o[len(o)-1] >> last & 0xff
	carry := e
	for k, x := range o {
		o[k] = x<<8 | carry
		carry = x >> 56
	}
	o[len(o)-1] |= pad
	return int(e)
}

// find returns the lowest way of r holding line, or -1. A miss reads no
// tag unless a fingerprint collides.
func (l *level) find(r []uint64, line int64) int {
	tag := uint64(line + 1)
	pat := uint64(byte(line>>l.setBits)&fpMask) * lanesLow
	for k, word := range r[:l.words] {
		// Each way whose fingerprint matches is a zero byte; a spurious
		// flag fails the tag compare.
		for c := zeroLanes(word&lanesFP ^ pat); c != 0; c &= c - 1 {
			if w := k*8 + bits.TrailingZeros64(c)>>3; w < l.ways && r[l.tags+w] == tag {
				return w
			}
		}
	}
	return -1
}

// order returns r's recency order.
func (l *level) order(r []uint64) order { return order(r[l.words:l.tags]) }

// touch makes way w of r the most recently used.
func (l *level) touch(r []uint64, w int) { l.order(r).touch(w) }

// replace installs line in r's least recently used way, unmarked but for
// prefetch, makes that way the most recently used, and returns it: the
// order rotates by one byte, the victim's byte leaving its end for the
// front.
func (l *level) replace(r []uint64, line int64, prefetch bool) int {
	w := l.order(r).rotate(l.lastShift, l.pad)
	r[l.tags+w] = uint64(line + 1)
	b := byte(line>>l.setBits) & fpMask
	if prefetch {
		b |= prefetchedMark
	}
	l.setLane(r, w, b)
	return w
}

// insertAbsent installs line in the LRU way unless a way already holds it,
// and returns the way holding it and whether it installed. A resident line
// keeps its recency.
func (l *level) insertAbsent(r []uint64, line int64, prefetch bool) (int, bool) {
	if w := l.find(r, line); w >= 0 {
		return w, false
	}
	return l.replace(r, line, prefetch), true
}

// fillFabric installs line and marks it fabric-new. It is an install into
// the LRU victim followed by a lookup: the install does not check
// residency, so a line already held in a lower way than the victim keeps
// serving lookups, and that way — not the victim — becomes the most
// recently used and takes the fabric-new mark.
func (l *level) fillFabric(line int64) {
	r := l.record(l.base(line))
	held := l.find(r, line)
	v := l.replace(r, line, false)
	w := v
	if held >= 0 && held < v {
		w = held
	}
	l.touch(r, w)
	l.setLane(r, w, l.lane(r, w)|fabricNewMark)
}

// contains probes without touching recency (used by tests).
func (l *level) contains(addr int64) bool {
	line := addr >> l.lineBits
	return l.find(l.record(l.base(line)), line) >= 0
}

// stream is one tracked sequential access pattern.
type stream struct {
	nextLine int64 // next expected line index
	hits     int   // training confirmations
	valid    bool
}

// nearLine is one of the last two distinct lines loads touched, with the
// L1 way that holds it.
type nearLine struct {
	line int64
	base int32 // the line's L1 set record
	way  int32
}

// noLine marks an unused near entry; no address maps to it.
const noLine = math.MinInt64

// Hierarchy is the simulated L1→L2→DRAM read path. Not safe for concurrent
// use; each simulated core owns one, and one goroutine at a time drives it.
// Ownership may pass between goroutines only through a synchronizing
// hand-off, as the batch pipeline's replay channels do.
type Hierarchy struct {
	cfg     HierarchyConfig
	l1, l2  *level
	mem     *dram.Module
	streams []stream
	// streamOrder ranks the streams by their last use; a never-used slot
	// ranks below every used one, the lowest index least recent, so the
	// stream a miss displaces is the first free slot or else the least
	// recently used stream.
	streamOrder order
	streamLast  uint   // the bit of the least recent stream in its word
	streamPad   uint64 // streamOrder's last word past the last stream
	stats       Stats
	tl          *obs.Timeline // optional cycle sampler; nil-safe hooks

	// pfTags[l%pfMemo] is the index in l2.sets of the tag of the way where
	// a prefetch of line l last found or installed it. A stream's next
	// advance asks for Degree-1 of the lines its last one did, and a
	// neighbouring stream's often overlap, so a tag match at the
	// remembered way, which proves the line resident and is all a prefetch
	// of it checks, spares most set lookups. Every entry names some tag
	// word, so a match is never spurious.
	pfTags [pfMemo]int32

	// MLP tracking: loads since the last demand miss and the bank it hit.
	loadsSinceMiss int
	lastMissBank   int
	sawMiss        bool

	// near holds the last two distinct lines loads touched, most recent
	// first, or noLine (always in near[1] when L1 is direct-mapped). At
	// most one other line has been touched since either, fewer than a set
	// has ways, so each is still in L1 at its way: a load to one is an L1
	// hit charged without a probe, with the hit's exact state updates.
	near    [2]nearLine
	twoNear bool // L1 has at least two ways
}

// NewHierarchy builds the hierarchy on top of the given DRAM module. The
// module's line size must match the cache line size.
func NewHierarchy(cfg HierarchyConfig, mem *dram.Module) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, fmt.Errorf("cache: nil DRAM module")
	}
	if mem.LineBytes() != cfg.L1.LineBytes {
		return nil, fmt.Errorf("cache: DRAM line %d != cache line %d", mem.LineBytes(), cfg.L1.LineBytes)
	}
	h := &Hierarchy{
		cfg:         cfg,
		l1:          newLevel(cfg.L1),
		l2:          newLevel(cfg.L2),
		mem:         mem,
		streams:     make([]stream, cfg.Prefetch.Streams),
		streamOrder: make(order, (cfg.Prefetch.Streams+7)/8),
		twoNear:     cfg.L1.Ways > 1,
	}
	h.streamLast, h.streamPad = orderEnd(cfg.Prefetch.Streams)
	h.streamOrder.reset(cfg.Prefetch.Streams)
	h.resetPrefetchTags()
	h.clearNear()
	return h, nil
}

// pfMemo is the number of prefetch lines whose ways the hierarchy
// remembers.
const pfMemo = 64

// resetPrefetchTags points every remembered prefetch way at the first tag.
func (h *Hierarchy) resetPrefetchTags() {
	for i := range h.pfTags {
		h.pfTags[i] = int32(h.l2.tags)
	}
}

// MustHierarchy is NewHierarchy panicking on error, for fixtures.
func MustHierarchy(cfg HierarchyConfig, mem *dram.Module) *Hierarchy {
	h, err := NewHierarchy(cfg, mem)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Clone returns a fresh, cold hierarchy with the same configuration on top
// of mem. Parallel executors pair each worker's clone with its own DRAM
// module clone; a Hierarchy is single-owner state.
func (h *Hierarchy) Clone(mem *dram.Module) (*Hierarchy, error) {
	return NewHierarchy(h.cfg, mem)
}

// SetTimeline attaches (or, with nil, detaches) a cycle sampler. Clones do
// not inherit it (see dram.Module.SetTimeline).
func (h *Hierarchy) SetTimeline(tl *obs.Timeline) { h.tl = tl }

// Stats returns a copy of the accumulated statistics.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats zeroes counters but keeps cache contents.
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// Reset flushes both levels, the prefetcher, and statistics.
func (h *Hierarchy) Reset() {
	h.l1.reset()
	h.l2.reset()
	clear(h.streams)
	h.streamOrder.reset(len(h.streams))
	h.resetPrefetchTags()
	h.stats = Stats{}
	h.loadsSinceMiss = 0
	h.lastMissBank = 0
	h.sawMiss = false
	h.clearNear()
}

// LineBytes returns the line size of the hierarchy.
func (h *Hierarchy) LineBytes() int { return h.cfg.L1.LineBytes }

// Load charges one demand load of the byte at addr and returns its cycle
// cost. The load touches a single line; callers issue one Load per distinct
// line they read (the engine layer handles widths spanning lines).
func (h *Hierarchy) Load(addr int64) uint64 {
	return h.access(addr >> h.l1.lineBits)
}

// Stream is one strided address sequence of a run: step i of the run loads
// the byte at Base + i*Stride.
type Stream struct{ Base, Stride int64 }

// Run is Count steps over the next Streams entries of the stream list
// LoadRuns walks; each step loads one address from each of those streams,
// in list order. A strided row scan is one run whose streams are the
// columns a row touches; a bitmap refine pass interleaves a value stream
// and a bitmap stream.
type Run struct{ Count, Streams int32 }

// LoadRuns charges the loads of runs, in order, and returns their total
// cost. It leaves the hierarchy, its DRAM module and any attached timeline
// exactly as one Load per address, in run order, would. Loads that land on
// one of the last two lines touched are L1 hits charged without a probe,
// and the steps of a run during which every stream stays on the line its
// previous step touched are charged at once: when a step leaves all its
// lines in L1, repeating it hits every load and leaves the recency order
// the step itself left.
func (h *Hierarchy) LoadRuns(runs []Run, streams []Stream) uint64 {
	before := h.stats.Cycles
	for _, r := range runs {
		k := int(r.Streams)
		h.loadRun(int64(r.Count), streams[:k:k])
		streams = streams[k:]
	}
	return h.stats.Cycles - before
}

// maxCoalesce bounds the streams of a run whose steps LoadRuns coalesces.
const maxCoalesce = 16

// loadRun charges n steps over ss. Loads on the last line touched change
// nothing but counters, so they are counted and charged together before
// the next load that may touch more.
func (h *Hierarchy) loadRun(n int64, ss []Stream) {
	if n > 1 && h.coalesces(ss) {
		h.loadSteps(n, ss)
		return
	}
	bits := h.l1.lineBits
	var same uint64
	for i := int64(0); i < n; i++ {
		for _, st := range ss {
			line := (st.Base + i*st.Stride) >> bits
			if line == h.near[0].line {
				same++
				continue
			}
			if same > 0 {
				h.hits(same)
				same = 0
			}
			h.far(line)
		}
	}
	if same > 0 {
		h.hits(same)
	}
}

// coalesces reports whether loadSteps should charge a run over ss: its
// streams are few and each stays on a line for several steps.
func (h *Hierarchy) coalesces(ss []Stream) bool {
	if len(ss) > maxCoalesce {
		return false
	}
	short := int64(h.cfg.L1.LineBytes / 4)
	for _, st := range ss {
		if st.Stride > short || -st.Stride > short {
			return false
		}
	}
	return true
}

// loadSteps charges n steps over ss, whose strides are all below the line
// size, charging at once the steps that repeat the previous step's lines.
func (h *Hierarchy) loadSteps(n int64, ss []Stream) {
	bits := h.l1.lineBits
	lb := int64(h.cfg.L1.LineBytes)
	// held[j] is where stream j's line went in L1: the index of its tag.
	var held [maxCoalesce]int
	for i := int64(0); i < n; {
		for j, st := range ss {
			h.access((st.Base + i*st.Stride) >> bits)
			held[j] = int(h.near[0].base) + h.l1.tags + int(h.near[0].way)
		}
		i++
		if i == n {
			break
		}
		// m is how many further steps keep every stream on its line, or 0
		// when a later load of the step evicted an earlier one's line.
		m := n - i
		for j, st := range ss {
			a := st.Base + (i-1)*st.Stride
			if h.l1.sets[held[j]] != uint64(a>>bits+1) {
				m = 0
				break
			}
			switch first := a >> bits << bits; {
			case st.Stride > 0:
				m = min(m, (first+lb-1-a)/st.Stride)
			case st.Stride < 0:
				m = min(m, (a-first)/-st.Stride)
			}
		}
		if m > 0 {
			h.hits(uint64(m) * uint64(len(ss)))
			i += m
		}
	}
}

// hits charges n L1 hits to lines whose recency needs no update.
func (h *Hierarchy) hits(n uint64) {
	h.stats.Loads += n
	h.stats.L1Hits += n
	h.stats.Cycles += n * uint64(h.cfg.L1.HitCycles)
	h.loadsSinceMiss += int(n)
	h.tl.CacheHits(n)
}

// access charges a demand load of line: a stay on one of the near lines,
// or a full load.
func (h *Hierarchy) access(line int64) uint64 {
	if line == h.near[0].line {
		h.hits(1)
		return uint64(h.cfg.L1.HitCycles)
	}
	return h.far(line)
}

// far charges a demand load of a line other than the last one touched.
func (h *Hierarchy) far(line int64) uint64 {
	if line == h.near[1].line {
		return h.stay()
	}
	return h.load(line)
}

// stay charges an L1 hit on the line touched before the last one: it
// becomes the most recent near line and the most recently used way of its
// set. (A hit on the last line touched changes no order.)
func (h *Hierarchy) stay() uint64 {
	h.near[0], h.near[1] = h.near[1], h.near[0]
	n := h.near[0]
	h.l1.touch(h.l1.record(int(n.base)), int(n.way))
	h.hits(1)
	return uint64(h.cfg.L1.HitCycles)
}

// load charges a load that may miss L1. Each level is looked up once, and
// a miss installs the line in the level's least recently used way.
func (h *Hierarchy) load(line int64) uint64 {
	h.stats.Loads++
	h.loadsSinceMiss++
	cost := uint64(h.cfg.L1.HitCycles)
	b1 := h.l1.base(line)
	s1 := h.l1.record(b1)
	w1 := h.l1.find(s1, line)
	if w1 >= 0 {
		h.l1.touch(s1, w1)
		h.pushNear(line, b1, w1)
		h.stats.L1Hits++
		h.stats.Cycles += cost
		h.tl.CacheLoad(false)
		return cost
	}
	cost += uint64(h.cfg.L2.HitCycles)
	s2 := h.l2.record(h.l2.base(line))
	w2 := h.l2.find(s2, line)
	hit := w2 >= 0
	if hit {
		h.stats.L2Hits++
		h.l2.touch(s2, w2)
		if b := h.l2.lane(s2, w2); b&^fpMask != 0 {
			if b&prefetchedMark != 0 {
				h.stats.PrefetchHits++
			}
			if b&fabricNewMark != 0 {
				cost += uint64(h.cfg.FabricHitCycles)
			}
			h.l2.setLane(s2, w2, b&fpMask)
		}
	} else {
		// Demand miss to DRAM. The full DRAM time always lands in the
		// module's occupancy statistics, but the latency exposed to this
		// load shrinks to OverlapMissCycles when the miss can overlap an
		// immediately preceding miss to a different bank (memory-level
		// parallelism).
		dramCost, bank := h.mem.Access(line << h.l1.lineBits)
		overlapped := h.cfg.MLPWindow > 0 && h.sawMiss &&
			h.loadsSinceMiss <= h.cfg.MLPWindow && bank != h.lastMissBank
		if overlapped {
			cost += uint64(h.cfg.OverlapMissCycles)
			h.stats.OverlappedMisses++
		} else {
			cost += dramCost
		}
		h.sawMiss = true
		h.lastMissBank = bank
		h.loadsSinceMiss = 0
		h.stats.DRAMFills++
		h.stats.BytesFromDRAM += uint64(h.LineBytes())
		h.l2.replace(s2, line, false)
	}
	w1 = h.l1.replace(s1, line, false)
	h.pushNear(line, b1, w1)
	h.train(line)
	h.stats.Cycles += cost
	h.tl.CacheLoad(!hit)
	return cost
}

// pushNear records line, just touched in L1 way w of the set record at
// base, as the most recent near line.
func (h *Hierarchy) pushNear(line int64, base, w int) {
	if h.twoNear {
		h.near[1] = h.near[0]
	}
	h.near[0] = nearLine{line: line, base: int32(base), way: int32(w)}
}

// clearNear forgets the near lines.
func (h *Hierarchy) clearNear() {
	for i := range h.near {
		h.near[i] = nearLine{line: noLine}
	}
}

// train feeds the prefetcher with a line-granularity demand access and lets
// confirmed streams pull lines into L2. Prefetch DRAM time is deliberately
// not charged to the demand path: a stream prefetcher's whole point is to
// overlap memory time with compute, and the paper's ≤4-column columnar wins
// exist precisely because of that overlap.
func (h *Hierarchy) train(line int64) {
	for i := range h.streams {
		s := &h.streams[i]
		if s.nextLine == line && s.valid {
			// The stream advances and may issue prefetches.
			s.hits++
			s.nextLine = line + 1
			h.streamOrder.touch(i)
			if s.hits >= h.cfg.Prefetch.TrainHits {
				h.issuePrefetch(line + 1)
			}
			return
		}
	}
	if len(h.streams) == 0 {
		return
	}
	// Displacing the LRU stream is the thrash mechanism when more streams
	// exist than slots.
	victim := h.streamOrder.rotate(h.streamLast, h.streamPad)
	h.streams[victim] = stream{nextLine: line + 1, hits: 1, valid: true}
}

// issuePrefetch pulls Degree sequential lines starting at line into L2.
func (h *Hierarchy) issuePrefetch(line int64) {
	for l := line; l < line+int64(h.cfg.Prefetch.Degree); l++ {
		at := &h.pfTags[uint64(l)%pfMemo]
		if h.l2.sets[*at] == uint64(l+1) {
			continue
		}
		base := h.l2.base(l)
		w, installed := h.l2.insertAbsent(h.l2.record(base), l, true)
		*at = int32(base + h.l2.tags + w)
		if !installed {
			continue
		}
		h.mem.Access(l << h.l2.lineBits) // occupies DRAM (stats/row-buffer), off demand path
		h.stats.PrefetchIssued++
		h.stats.BytesFromDRAM += uint64(h.LineBytes())
	}
}

// FillFromFabric installs a line the Relational Memory engine assembled and
// pushed toward the CPU (§IV-A step 4: "transfers the reorganized data upon
// availability"). The line lands in L2 (and is not marked prefetched — it is
// demand data the fabric produced); the DRAM traffic behind it was already
// charged to the fabric.
func (h *Hierarchy) FillFromFabric(addr int64) {
	h.stats.FabricFills++
	h.l2.fillFabric(addr >> h.l2.lineBits)
}

// ContainsL1 reports whether the line holding addr is resident in L1.
// Intended for tests and invariant checks.
func (h *Hierarchy) ContainsL1(addr int64) bool { return h.l1.contains(addr) }

// ContainsL2 reports whether the line holding addr is resident in L2.
func (h *Hierarchy) ContainsL2(addr int64) bool { return h.l2.contains(addr) }

// DRAM exposes the backing module (shared with the fabric).
func (h *Hierarchy) DRAM() *dram.Module { return h.mem }
