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
	if c.Ways <= 0 || c.Ways > maxWays {
		return fmt.Errorf("cache: Ways must be in [1, %d], got %d", maxWays, c.Ways)
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
	if c.Streams < 0 || c.Degree < 0 || c.TrainHits < 1 {
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

// maxWays is the associativity a level's per-set way hint (a uint8) can
// index.
const maxWays = 256

// level is one set-associative cache with true-LRU replacement.
type level struct {
	cfg      LevelConfig
	ways     int // cfg.Ways
	setMask  int64
	lineBits uint
	// tags[set*ways+way] holds the line index (addr >> lineBits) + 1,
	// zero meaning invalid. lru holds a per-line recency stamp.
	tags []int64
	lru  []uint64
	tick uint64
	// prefetched marks lines installed by the prefetcher and not yet
	// demanded, so hits on them can be attributed.
	prefetched []bool
	// fabricNew marks lines the fabric delivered that have not yet been
	// demanded; the first demand hit pays FabricHitCycles extra.
	fabricNew []bool
	// hint[set] is the way that last served a lookup or took an install in
	// the set; probes check it before scanning. The shortcut changes no
	// state because a tag match at hint[set] is always the lowest way
	// holding that line, the way a full scan returns: scans return the
	// lowest match, an install places a line no other way holds, and the
	// one fill that can leave a line in two ways, fillFabric, points the
	// hint at the lower one.
	hint []uint8
}

func newLevel(cfg LevelConfig) *level {
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	l := &level{
		cfg:        cfg,
		ways:       cfg.Ways,
		setMask:    int64(sets - 1),
		tags:       make([]int64, sets*cfg.Ways),
		lru:        make([]uint64, sets*cfg.Ways),
		prefetched: make([]bool, sets*cfg.Ways),
		fabricNew:  make([]bool, sets*cfg.Ways),
		hint:       make([]uint8, sets),
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		l.lineBits++
	}
	return l
}

func (l *level) reset() {
	clear(l.tags)
	clear(l.lru)
	clear(l.prefetched)
	clear(l.fabricNew)
	clear(l.hint)
	l.tick = 0
}

// probe looks up line. On a hit it refreshes the way's recency and returns
// (slot, true). On a miss it touches nothing and returns the slot an
// install must use — the least recently used way, the first of equally old
// ones — and false; the caller installs there before anything else touches
// the level.
func (l *level) probe(line int64) (int, bool) {
	set := int(line & l.setMask)
	base := set * l.ways
	if slot := base + int(l.hint[set]); l.tags[slot] == line+1 {
		l.tick++
		l.lru[slot] = l.tick
		return slot, true
	}
	tags := l.tags[base : base+l.ways]
	lru := l.lru[base : base+len(tags)]
	victim, oldest := 0, lru[0]
	for w, t := range tags {
		if t == line+1 {
			l.tick++
			lru[w] = l.tick
			l.hint[set] = uint8(w)
			return base + w, true
		}
		if stamp := lru[w]; stamp < oldest {
			victim, oldest = w, stamp
		}
	}
	return base + victim, false
}

// install places line in slot with the newest recency stamp and points the
// set's hint at it.
func (l *level) install(slot int, line int64, prefetch bool) {
	set := int(line & l.setMask)
	l.hint[set] = uint8(slot - set*l.ways)
	l.tick++
	l.tags[slot] = line + 1
	l.lru[slot] = l.tick
	l.prefetched[slot] = prefetch
	l.fabricNew[slot] = false
}

// insertAbsent installs line unless a way already holds it, and reports
// whether it installed. A resident line keeps its recency stamp.
func (l *level) insertAbsent(line int64, prefetch bool) bool {
	set := int(line & l.setMask)
	base := set * l.ways
	if l.tags[base+int(l.hint[set])] == line+1 {
		return false
	}
	tags := l.tags[base : base+l.ways]
	lru := l.lru[base : base+len(tags)]
	victim, oldest := 0, lru[0]
	for w, t := range tags {
		if t == line+1 {
			return false
		}
		if stamp := lru[w]; stamp < oldest {
			victim, oldest = w, stamp
		}
	}
	l.install(base+victim, line, prefetch)
	return true
}

// fillFabric installs line and marks it fabric-new, in one pass over the
// set. It is an install into the LRU victim followed by a lookup: the
// install does not check residency, so a line already held in a lower way
// than the victim keeps serving lookups, and that way — not the victim —
// takes the lookup's recency stamp, the fabric-new mark and the hint.
func (l *level) fillFabric(line int64) {
	set := int(line & l.setMask)
	base := set * l.ways
	tags := l.tags[base : base+l.ways]
	lru := l.lru[base : base+len(tags)]
	victim, oldest, held := 0, lru[0], len(tags)
	for w, t := range tags {
		if t == line+1 && w < held {
			held = w
		}
		if stamp := lru[w]; stamp < oldest {
			victim, oldest = w, stamp
		}
	}
	l.install(base+victim, line, false)
	way := min(victim, held)
	l.hint[set] = uint8(way)
	l.tick++
	l.lru[base+way] = l.tick
	l.fabricNew[base+way] = true
}

// contains probes without touching recency (used by tests).
func (l *level) contains(addr int64) bool {
	line := addr >> l.lineBits
	base := int(line&l.setMask) * l.ways
	for _, t := range l.tags[base : base+l.ways] {
		if t == line+1 {
			return true
		}
	}
	return false
}

// stream is one tracked sequential access pattern.
type stream struct {
	nextLine int64 // next expected line index
	hits     int   // training confirmations
	lastUse  uint64
	valid    bool
}

// Hierarchy is the simulated L1→L2→DRAM read path. Not safe for concurrent
// use; each simulated core owns one, and one goroutine at a time drives it.
// Ownership may pass between goroutines only through a synchronizing
// hand-off, as the batch pipeline's replay channels do.
type Hierarchy struct {
	cfg     HierarchyConfig
	l1, l2  *level
	mem     *dram.Module
	streams []stream
	tick    uint64
	stats   Stats
	tl      *obs.Timeline // optional cycle sampler; nil-safe hooks

	// MLP tracking: loads since the last demand miss and the bank it hit.
	loadsSinceMiss int
	lastMissBank   int
	sawMiss        bool

	// L1 same-line fast path: the slot that served the most recent L1 hit
	// or fill. Scans load the same line many times in a row, and remembering
	// the slot skips the associative probe while performing the identical
	// state updates (recency stamp, stats, timeline), so simulated behavior
	// is unchanged. lastL1Slot is -1 when no mapping is cached.
	lastL1Line int64
	lastL1Slot int
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
	return &Hierarchy{
		cfg:        cfg,
		l1:         newLevel(cfg.L1),
		l2:         newLevel(cfg.L2),
		mem:        mem,
		streams:    make([]stream, cfg.Prefetch.Streams),
		lastL1Slot: -1,
	}, nil
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
	for i := range h.streams {
		h.streams[i] = stream{}
	}
	h.stats = Stats{}
	h.tick = 0
	h.loadsSinceMiss = 0
	h.lastMissBank = 0
	h.sawMiss = false
	h.lastL1Line = 0
	h.lastL1Slot = -1
}

// LineBytes returns the line size of the hierarchy.
func (h *Hierarchy) LineBytes() int { return h.cfg.L1.LineBytes }

// Load charges one demand load of the byte at addr and returns its cycle
// cost. The load touches a single line; callers issue one Load per distinct
// line they read (the engine layer handles widths spanning lines).
func (h *Hierarchy) Load(addr int64) uint64 {
	if addr>>h.l1.lineBits == h.lastL1Line && h.lastL1Slot >= 0 {
		return h.loadSameLine()
	}
	return h.load(addr)
}

// LoadAddrs charges one demand load per address, in order, and returns
// their total cost. It leaves the hierarchy, its DRAM module and any
// attached timeline exactly as the same sequence of Load calls would; it
// only saves the per-call overhead of batch replay loops.
func (h *Hierarchy) LoadAddrs(addrs []int64) uint64 {
	var total uint64
	for _, addr := range addrs {
		if addr>>h.l1.lineBits == h.lastL1Line && h.lastL1Slot >= 0 {
			total += h.loadSameLine()
		} else {
			total += h.load(addr)
		}
	}
	return total
}

// loadSameLine charges a load to the line of the previous L1 hit or fill.
// It skips the associative probe but performs a hit's exact state updates
// (recency stamp, stats, timeline).
func (h *Hierarchy) loadSameLine() uint64 {
	cost := uint64(h.cfg.L1.HitCycles)
	h.stats.Loads++
	h.loadsSinceMiss++
	h.l1.tick++
	h.l1.lru[h.lastL1Slot] = h.l1.tick
	h.stats.L1Hits++
	h.stats.Cycles += cost
	h.tl.CacheLoad(false)
	return cost
}

// load charges a load that may miss L1. Each level is probed once: a miss
// returns the victim slot, and nothing touches that level before the line
// is installed there.
func (h *Hierarchy) load(addr int64) uint64 {
	h.stats.Loads++
	h.loadsSinceMiss++
	cost := uint64(h.cfg.L1.HitCycles)
	line := addr >> h.l1.lineBits
	l1Slot, hit := h.l1.probe(line)
	h.lastL1Line = line
	h.lastL1Slot = l1Slot
	if hit {
		h.stats.L1Hits++
		h.stats.Cycles += cost
		h.tl.CacheLoad(false)
		return cost
	}
	cost += uint64(h.cfg.L2.HitCycles)
	l2Slot, hit := h.l2.probe(line)
	if hit {
		h.stats.L2Hits++
		if h.l2.prefetched[l2Slot] {
			h.stats.PrefetchHits++
			h.l2.prefetched[l2Slot] = false
		}
		if h.l2.fabricNew[l2Slot] {
			cost += uint64(h.cfg.FabricHitCycles)
			h.l2.fabricNew[l2Slot] = false
		}
	} else {
		// Demand miss to DRAM. The full DRAM time always lands in the
		// module's occupancy statistics, but the latency exposed to this
		// load shrinks to OverlapMissCycles when the miss can overlap an
		// immediately preceding miss to a different bank (memory-level
		// parallelism).
		dramCost, bank := h.mem.Access(addr)
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
		h.l2.install(l2Slot, line, false)
	}
	h.l1.install(l1Slot, line, false)
	h.train(line)
	h.stats.Cycles += cost
	h.tl.CacheLoad(!hit)
	return cost
}

// train feeds the prefetcher with a line-granularity demand access and lets
// confirmed streams pull lines into L2. Prefetch DRAM time is deliberately
// not charged to the demand path: a stream prefetcher's whole point is to
// overlap memory time with compute, and the paper's ≤4-column columnar wins
// exist precisely because of that overlap.
func (h *Hierarchy) train(line int64) {
	if len(h.streams) == 0 {
		return
	}
	h.tick++
	// One pass finds the stream that expected this line, the first free
	// slot, and the least recently used tracked stream (first of ties).
	victim, free := 0, -1
	for i := range h.streams {
		s := &h.streams[i]
		if !s.valid {
			if free < 0 {
				free = i
			}
			continue
		}
		if s.nextLine == line {
			// The stream advances and may issue prefetches.
			s.hits++
			s.nextLine = line + 1
			s.lastUse = h.tick
			if s.hits >= h.cfg.Prefetch.TrainHits {
				h.issuePrefetch(line+1, h.cfg.Prefetch.Degree)
			}
			return
		}
		if s.lastUse < h.streams[victim].lastUse {
			victim = i
		}
	}
	// Otherwise allocate a free slot, or displace the LRU stream — this is
	// the thrash mechanism when more streams exist than slots.
	if free >= 0 {
		victim = free
	}
	h.streams[victim] = stream{nextLine: line + 1, hits: 1, lastUse: h.tick, valid: true}
}

// issuePrefetch pulls up to n sequential lines starting at line into L2.
func (h *Hierarchy) issuePrefetch(line int64, n int) {
	for l := line; l < line+int64(n); l++ {
		if !h.l2.insertAbsent(l, true) {
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
