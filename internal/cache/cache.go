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
	if c.Ways <= 0 {
		return fmt.Errorf("cache: Ways must be positive, got %d", c.Ways)
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

// level is one set-associative cache with true-LRU replacement.
type level struct {
	cfg      LevelConfig
	sets     int
	setMask  int64
	lineBits uint
	// tags[set*ways+way] holds the line address (addr >> lineBits) + 1,
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
}

func newLevel(cfg LevelConfig) *level {
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	l := &level{
		cfg:        cfg,
		sets:       sets,
		setMask:    int64(sets - 1),
		tags:       make([]int64, sets*cfg.Ways),
		lru:        make([]uint64, sets*cfg.Ways),
		prefetched: make([]bool, sets*cfg.Ways),
		fabricNew:  make([]bool, sets*cfg.Ways),
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		l.lineBits++
	}
	return l
}

func (l *level) reset() {
	for i := range l.tags {
		l.tags[i] = 0
		l.lru[i] = 0
		l.prefetched[i] = false
		l.fabricNew[i] = false
	}
	l.tick = 0
}

// set returns the line holding addr, the first slot of its set, and the
// set's tags and recency stamps (both Ways long).
func (l *level) set(addr int64) (line int64, base int, tags []int64, lru []uint64) {
	line = addr >> l.lineBits
	base = int(line&l.setMask) * l.cfg.Ways
	tags = l.tags[base : base+l.cfg.Ways]
	return line, base, tags, l.lru[base : base+len(tags)]
}

// lookup probes for the line containing addr. On hit it refreshes recency
// and returns (slot, true).
func (l *level) lookup(addr int64) (int, bool) {
	line, base, tags, _ := l.set(addr)
	for w, t := range tags {
		if t == line+1 {
			l.tick++
			l.lru[base+w] = l.tick
			return base + w, true
		}
	}
	return -1, false
}

// insert installs the line containing addr, evicting the LRU way (the
// first of equally old ones), and returns the slot it used.
func (l *level) insert(addr int64, prefetch bool) int {
	line, base, _, lru := l.set(addr)
	victim, oldest := 0, lru[0]
	for w, stamp := range lru {
		if stamp < oldest {
			victim, oldest = w, stamp
		}
	}
	l.install(base+victim, line, prefetch)
	return base + victim
}

// install places line in slot with the newest recency stamp.
func (l *level) install(slot int, line int64, prefetch bool) {
	l.tick++
	l.tags[slot] = line + 1
	l.lru[slot] = l.tick
	l.prefetched[slot] = prefetch
	l.fabricNew[slot] = false
}

// insertAbsent installs the line containing addr unless a way already holds
// it, in one pass over the set that finds either the resident way or the
// LRU victim, and reports whether it installed. It is contains followed by
// insert on a miss.
func (l *level) insertAbsent(addr int64, prefetch bool) bool {
	line, base, tags, lru := l.set(addr)
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

// fillFabric installs the line containing addr and marks it fabric-new, in
// one pass over the set. It is insert followed by lookup: insert does not
// check residency, so a line already held in a lower way than the victim
// keeps serving lookups, and that way — not the victim — takes the lookup's
// recency stamp and the fabric-new mark.
func (l *level) fillFabric(addr int64) {
	line, base, tags, lru := l.set(addr)
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
	slot := base + min(victim, held)
	l.tick++
	l.lru[slot] = l.tick
	l.fabricNew[slot] = true
}

// contains probes without touching recency (used by tests).
func (l *level) contains(addr int64) bool {
	line, _, tags, _ := l.set(addr)
	for _, t := range tags {
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
// use; each simulated core owns one.
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

// lineOf truncates an address to its line index.
func (h *Hierarchy) lineOf(addr int64) int64 {
	return addr >> h.l1.lineBits
}

// Load charges one demand load of the byte at addr and returns its cycle
// cost. The load touches a single line; callers issue one Load per distinct
// line they read (the engine layer handles widths spanning lines).
func (h *Hierarchy) Load(addr int64) uint64 {
	h.stats.Loads++
	h.loadsSinceMiss++
	cost := uint64(h.cfg.L1.HitCycles)
	line := addr >> h.l1.lineBits
	if line == h.lastL1Line && h.lastL1Slot >= 0 {
		// Same line as the previous L1 hit/fill: skip the associative probe
		// but perform lookup's exact state updates.
		h.l1.tick++
		h.l1.lru[h.lastL1Slot] = h.l1.tick
		h.stats.L1Hits++
		h.stats.Cycles += cost
		h.tl.CacheLoad(false)
		return cost
	}
	if slot, ok := h.l1.lookup(addr); ok {
		h.lastL1Line = line
		h.lastL1Slot = slot
		h.stats.L1Hits++
		h.stats.Cycles += cost
		h.tl.CacheLoad(false)
		return cost
	}
	cost += uint64(h.cfg.L2.HitCycles)
	if slot, ok := h.l2.lookup(addr); ok {
		h.stats.L2Hits++
		if h.l2.prefetched[slot] {
			h.stats.PrefetchHits++
			h.l2.prefetched[slot] = false
		}
		if h.l2.fabricNew[slot] {
			cost += uint64(h.cfg.FabricHitCycles)
			h.l2.fabricNew[slot] = false
		}
		h.lastL1Line = line
		h.lastL1Slot = h.l1.insert(addr, false)
		h.train(addr)
		h.stats.Cycles += cost
		h.tl.CacheLoad(false)
		return cost
	}
	// Demand miss to DRAM. The full DRAM time always lands in the module's
	// occupancy statistics, but the latency exposed to this load shrinks to
	// OverlapMissCycles when the miss can overlap an immediately preceding
	// miss to a different bank (memory-level parallelism).
	dramCost := h.mem.Access(addr)
	bank := h.mem.BankOf(addr)
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
	h.l2.insert(addr, false)
	h.lastL1Line = line
	h.lastL1Slot = h.l1.insert(addr, false)
	h.train(addr)
	h.stats.Cycles += cost
	h.tl.CacheLoad(true)
	return cost
}

// train feeds the prefetcher with a line-granularity demand access and lets
// confirmed streams pull lines into L2. Prefetch DRAM time is deliberately
// not charged to the demand path: a stream prefetcher's whole point is to
// overlap memory time with compute, and the paper's ≤4-column columnar wins
// exist precisely because of that overlap.
func (h *Hierarchy) train(addr int64) {
	if len(h.streams) == 0 {
		return
	}
	line := h.lineOf(addr)
	h.tick++
	// A stream that expected this line advances and may issue prefetches.
	for i := range h.streams {
		s := &h.streams[i]
		if !s.valid || s.nextLine != line {
			continue
		}
		s.hits++
		s.nextLine = line + 1
		s.lastUse = h.tick
		if s.hits >= h.cfg.Prefetch.TrainHits {
			h.issuePrefetch(line+1, h.cfg.Prefetch.Degree)
		}
		return
	}
	// Otherwise allocate a stream slot (LRU), displacing a tracked stream —
	// this is the thrash mechanism when more streams exist than slots.
	victim := 0
	for i := range h.streams {
		if !h.streams[i].valid {
			victim = i
			break
		}
		if h.streams[i].lastUse < h.streams[victim].lastUse {
			victim = i
		}
	}
	h.streams[victim] = stream{nextLine: line + 1, hits: 1, lastUse: h.tick, valid: true}
}

// issuePrefetch pulls up to n sequential lines starting at line into L2.
func (h *Hierarchy) issuePrefetch(line int64, n int) {
	lb := int64(h.LineBytes())
	for i := 0; i < n; i++ {
		addr := (line + int64(i)) * lb
		if !h.l2.insertAbsent(addr, true) {
			continue
		}
		h.mem.Access(addr) // occupies DRAM (stats/row-buffer), off demand path
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
	h.l2.fillFabric(addr)
}

// ContainsL1 reports whether the line holding addr is resident in L1.
// Intended for tests and invariant checks.
func (h *Hierarchy) ContainsL1(addr int64) bool { return h.l1.contains(addr) }

// ContainsL2 reports whether the line holding addr is resident in L2.
func (h *Hierarchy) ContainsL2(addr int64) bool { return h.l2.contains(addr) }

// DRAM exposes the backing module (shared with the fabric).
func (h *Hierarchy) DRAM() *dram.Module { return h.mem }
