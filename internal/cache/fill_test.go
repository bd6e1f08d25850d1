package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rfabric/internal/dram"
	"rfabric/internal/obs"
)

// The simulator's fast paths — set records with a recency list, the
// most-recent-way check, one probe per level on the miss path, remembered
// prefetch ways, near-line stays and coalesced run steps in LoadRuns — must
// leave it in exactly the state the plain logic does. refHier below is that
// logic with its own state: per level, parallel arrays of tags, recency
// stamps and marks, full set scans, lookup then insert, two prefetcher
// loops, and one load per address. The tests drive it side by side with the
// real hierarchy over random traces.

// refLevel is one plain set-associative level with true-LRU stamps.
type refLevel struct {
	ways       int
	setMask    int64
	lineBits   uint
	tags       []int64 // line+1, zero invalid
	lru        []uint64
	prefetched []bool
	fabricNew  []bool
	tick       uint64
}

func newRefLevel(cfg LevelConfig) *refLevel {
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	l := &refLevel{
		ways:       cfg.Ways,
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

func (l *refLevel) reset() {
	clear(l.tags)
	clear(l.lru)
	clear(l.prefetched)
	clear(l.fabricNew)
	l.tick = 0
}

func (l *refLevel) lookup(addr int64) (int, bool) {
	line := addr >> l.lineBits
	base := int(line&l.setMask) * l.ways
	for w := 0; w < l.ways; w++ {
		if l.tags[base+w] == line+1 {
			l.tick++
			l.lru[base+w] = l.tick
			return base + w, true
		}
	}
	return -1, false
}

func (l *refLevel) insert(addr int64, prefetch bool) int {
	line := addr >> l.lineBits
	base := int(line&l.setMask) * l.ways
	victim := base
	for w := 1; w < l.ways; w++ {
		if l.lru[base+w] < l.lru[victim] {
			victim = base + w
		}
	}
	l.tick++
	l.tags[victim] = line + 1
	l.lru[victim] = l.tick
	l.prefetched[victim] = prefetch
	l.fabricNew[victim] = false
	return victim
}

func (l *refLevel) contains(addr int64) bool {
	line := addr >> l.lineBits
	base := int(line&l.setMask) * l.ways
	for w := 0; w < l.ways; w++ {
		if l.tags[base+w] == line+1 {
			return true
		}
	}
	return false
}

// refStream is one plain prefetcher stream, with its last-use stamp.
type refStream struct {
	nextLine int64
	hits     int
	lastUse  uint64
	valid    bool
}

// refHier is the plain hierarchy over two refLevels.
type refHier struct {
	cfg            HierarchyConfig
	l1, l2         *refLevel
	mem            *dram.Module
	streams        []refStream
	tick           uint64
	stats          Stats
	tl             *obs.Timeline
	loadsSinceMiss int
	lastMissBank   int
	sawMiss        bool
}

func newRefHier(cfg HierarchyConfig, mem *dram.Module) *refHier {
	return &refHier{cfg: cfg, l1: newRefLevel(cfg.L1), l2: newRefLevel(cfg.L2), mem: mem,
		streams: make([]refStream, cfg.Prefetch.Streams)}
}

func (h *refHier) reset() {
	h.l1.reset()
	h.l2.reset()
	clear(h.streams)
	h.stats = Stats{}
	h.tick = 0
	h.loadsSinceMiss, h.lastMissBank, h.sawMiss = 0, 0, false
}

func (h *refHier) load(addr int64) uint64 {
	h.stats.Loads++
	h.loadsSinceMiss++
	cost := uint64(h.cfg.L1.HitCycles)
	if _, ok := h.l1.lookup(addr); ok {
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
		h.l1.insert(addr, false)
		h.train(addr)
		h.stats.Cycles += cost
		h.tl.CacheLoad(false)
		return cost
	}
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
	h.stats.BytesFromDRAM += uint64(h.cfg.L1.LineBytes)
	h.l2.insert(addr, false)
	h.l1.insert(addr, false)
	h.train(addr)
	h.stats.Cycles += cost
	h.tl.CacheLoad(true)
	return cost
}

func (h *refHier) train(addr int64) {
	if len(h.streams) == 0 {
		return
	}
	line := addr >> h.l1.lineBits
	h.tick++
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
	h.streams[victim] = refStream{nextLine: line + 1, hits: 1, lastUse: h.tick, valid: true}
}

func (h *refHier) issuePrefetch(line int64, n int) {
	lb := int64(h.cfg.L1.LineBytes)
	for i := 0; i < n; i++ {
		addr := (line + int64(i)) * lb
		if h.l2.contains(addr) {
			continue
		}
		h.mem.Access(addr)
		h.l2.insert(addr, true)
		h.stats.PrefetchIssued++
		h.stats.BytesFromDRAM += uint64(h.cfg.L1.LineBytes)
	}
}

func (h *refHier) fillFromFabric(addr int64) {
	h.stats.FabricFills++
	h.l2.insert(addr, false)
	if slot, ok := h.l2.lookup(addr); ok {
		h.l2.fabricNew[slot] = true
	}
}

func (h *refHier) loadRuns(runs []Run, streams []Stream) uint64 {
	var total uint64
	for _, r := range runs {
		ss := streams[:r.Streams]
		streams = streams[r.Streams:]
		for i := int64(0); i < int64(r.Count); i++ {
			for _, st := range ss {
				total += h.load(st.Base + i*st.Stride)
			}
		}
	}
	return total
}

// wayState is one way as the comparison sees it.
type wayState struct {
	way                   int
	tag                   int64
	prefetched, fabricNew bool
}

// setOrder lists set s of l from the most to the least recently used way.
func (l *level) setOrder(s int) []wayState {
	r := l.record(s * l.rec)
	out := make([]wayState, 0, l.ways)
	for p := range l.ways {
		if w := int(getByte(l.order(r), p)); w < l.ways {
			out = append(out, l.wayState(r, w))
		}
	}
	return out
}

func (l *level) wayState(r []uint64, w int) wayState {
	b := l.lane(r, w)
	return wayState{w, int64(r[l.tags+w]), b&prefetchedMark != 0, b&fabricNewMark != 0}
}

// setOrder lists set s of the reference level from the most to the least
// recently used way. Stamps tie only at zero, on ways never filled, which
// an LRU victim search takes lowest first, so the lower of those counts as
// older.
func (l *refLevel) setOrder(s int) []wayState {
	out := make([]wayState, l.ways)
	for w := range out {
		i := s*l.ways + w
		out[w] = wayState{w, l.tags[i], l.prefetched[i], l.fabricNew[i]}
	}
	stamps := l.lru[s*l.ways : (s+1)*l.ways]
	sort.Slice(out, func(a, b int) bool {
		sa, sb := stamps[out[a].way], stamps[out[b].way]
		if sa != sb {
			return sa > sb
		}
		return out[a].way > out[b].way
	})
	return out
}

// sameOrder reports the first set of two levels whose ways differ in
// recency order, tags or marks, or -1. a's order must list every way once,
// along b's stamps: of two adjacent ways, the more recent one has the
// larger stamp, or the equal stamp (never filled) and the higher index.
func sameOrder(a *level, b *refLevel) (int, []wayState, []wayState) {
	for s := 0; s <= int(a.setMask); s++ {
		r := a.record(s * a.rec)
		order := a.order(r)
		stamps := b.lru[s*b.ways : (s+1)*b.ways]
		var seen [maxOrder]bool
		ok := true
		for p := 0; p < a.words*8 && ok; p++ {
			w := int(getByte(order, p))
			if p >= a.ways {
				ok = w == 0xff
				continue
			}
			i := s*b.ways + w
			ok = w < a.ways && !seen[w] &&
				a.wayState(r, w) == wayState{w, b.tags[i], b.prefetched[i], b.fabricNew[i]}
			if ok && p > 0 {
				newer := int(getByte(order, p-1))
				ok = stamps[newer] > stamps[w] || stamps[newer] == stamps[w] && newer > w
			}
			if ok {
				seen[w] = true
			}
		}
		if !ok {
			return s, a.setOrder(s), b.setOrder(s)
		}
	}
	return -1, nil, nil
}

// sameStreams reports whether the prefetcher streams agree and h's stream
// order lists every stream once, along ref's last-use stamps, never-used
// slots (stamp 0) lowest index last, as the victim search takes them.
func sameStreams(h *Hierarchy, ref *refHier) bool {
	var seen [maxOrder]bool
	prev := -1
	for p := 0; p < len(h.streamOrder)*8; p++ {
		i := int(getByte(h.streamOrder, p))
		if p >= len(h.streams) {
			if i != 0xff {
				return false
			}
			continue
		}
		if i >= len(h.streams) || seen[i] {
			return false
		}
		s, r := h.streams[i], ref.streams[i]
		if s.nextLine != r.nextLine || s.hits != r.hits || s.valid != r.valid {
			return false
		}
		if prev >= 0 {
			a, b := ref.streams[prev].lastUse, r.lastUse
			if a < b || a == b && prev < i {
				return false
			}
		}
		seen[i], prev = true, i
	}
	return true
}

// checkSame fails the test unless h and the reference agree on statistics,
// DRAM statistics, the prefetcher, the MLP tracker, and every set of both
// levels: the ways in recency order with their tags and marks. Recency
// order is all an LRU level's behaviour reads of its stamps: a victim is
// the oldest way, and stamps tie only on never-filled ways, which the order
// ranks by index as the victim search does.
func checkSame(t *testing.T, where string, h *Hierarchy, ref *refHier) {
	t.Helper()
	if h.Stats() != ref.stats {
		t.Fatalf("%s: stats\n got  %+v\n want %+v", where, h.Stats(), ref.stats)
	}
	if h.mem.Stats() != ref.mem.Stats() {
		t.Fatalf("%s: DRAM stats\n got  %+v\n want %+v", where, h.mem.Stats(), ref.mem.Stats())
	}
	if !sameStreams(h, ref) ||
		h.loadsSinceMiss != ref.loadsSinceMiss || h.lastMissBank != ref.lastMissBank || h.sawMiss != ref.sawMiss {
		t.Fatalf("%s: prefetcher or MLP state differs", where)
	}
	for _, lv := range []struct {
		name string
		a    *level
		b    *refLevel
	}{{"L1", h.l1, ref.l1}, {"L2", h.l2, ref.l2}} {
		if s, got, want := sameOrder(lv.a, lv.b); s >= 0 {
			t.Fatalf("%s: %s set %d\n got  %v\n want %v", where, lv.name, s, got, want)
		}
	}
}

// traceGen draws addresses that exercise every path of a geometry. Lines
// set+k*sets share an L2 set (and an L1 set, as L1 has no more sets than
// L2), so drawing from a few sets with more candidate lines than L2 has ways
// forces evictions and conflict misses in both levels; sequential runs train
// the prefetcher; re-drawing a recent address yields same-line and L1/L2
// hits, and fabric fills of those create a line held in two L2 ways.
type traceGen struct {
	rng       *rand.Rand
	lineBytes int64
	sets      int64 // L2 set count
	l1Span    int64 // bytes between lines that share an L1 set
	hot       int   // sets drawn from
	depth     int   // candidate lines per set
	seqLines  int64 // length of the sequential domain
	next      int64
	recent    [8]int64
	nRecent   int
}

func newTraceGen(seed int64, cfg HierarchyConfig) *traceGen {
	return &traceGen{
		rng:       rand.New(rand.NewSource(seed)),
		lineBytes: int64(cfg.L2.LineBytes),
		sets:      int64(cfg.L2.SizeBytes / (cfg.L2.LineBytes * cfg.L2.Ways)),
		l1Span:    int64(cfg.L1.SizeBytes / cfg.L1.Ways),
		hot:       4,
		depth:     cfg.L2.Ways + cfg.L2.Ways/2,
		seqLines:  96,
	}
}

func (g *traceGen) addr() int64 {
	var line int64
	switch r := g.rng.Intn(4); {
	case r == 0:
		g.next = (g.next + 1) % g.seqLines
		line = g.next
	case r == 1 && g.nRecent > 0:
		line = g.recent[g.rng.Intn(min(g.nRecent, len(g.recent)))] / g.lineBytes
	default:
		line = int64(g.rng.Intn(g.hot)) + int64(g.rng.Intn(g.depth))*g.sets
	}
	a := line*g.lineBytes + int64(g.rng.Intn(int(g.lineBytes)))
	g.recent[g.nRecent%len(g.recent)] = a
	g.nRecent++
	return a
}

// runStrides are the strides runs draw from: zero, below, at and above the
// line size, an L1 and an L2 set apart, past a 4 KiB page and past a DRAM
// row stripe (the default module's 8 banks of 2 KiB rows), and backwards.
func (g *traceGen) stride() int64 {
	lb := g.lineBytes
	choices := []int64{0, 1, 4, 8, 12, 24, lb - 1, lb, lb + 1, 136, 192,
		g.l1Span, g.sets * lb, 4096 + 8, 16384 + lb, -8, -lb}
	return choices[g.rng.Intn(len(choices))]
}

// runs draws one LoadRuns call: up to four runs of one to five streams.
// Streams start at fresh or recent addresses, a few bytes after the
// previous stream (two streams on one line), or one L1 set span after it
// (two lines competing for one L1 set), and step by a shared or their own
// stride.
func (g *traceGen) runs() ([]Run, []Stream) {
	var runs []Run
	var streams []Stream
	for range 1 + g.rng.Intn(4) {
		k := 1 + g.rng.Intn(5)
		count := 1 + g.rng.Intn(48)
		if g.rng.Intn(4) == 0 {
			count = 1
		}
		shared := g.stride()
		var prev int64
		for j := 0; j < k; j++ {
			base := g.addr()
			if j > 0 {
				switch g.rng.Intn(3) {
				case 0:
					base = prev + int64(g.rng.Intn(16))
				case 1:
					base = prev + g.l1Span*int64(1+g.rng.Intn(2))
				}
			}
			stride := shared
			if g.rng.Intn(3) == 0 {
				stride = g.stride()
			}
			if stride < 0 {
				base += int64(count) * -stride // keep addresses non-negative
			}
			prev = base
			streams = append(streams, Stream{Base: base, Stride: stride})
		}
		runs = append(runs, Run{Count: int32(count), Streams: int32(k)})
	}
	return runs, streams
}

// differentialGeometries are the hierarchies the differential tests run: a
// direct-mapped L1 over a 2-way L2 with one stream, a small
// low-associativity one (2-way L1, where three streams on one L1 set evict
// each other within a step) and the default (16-way L2, 4 streams of
// degree 4).
var differentialGeometries = []struct {
	name         string
	cfg          HierarchyConfig
	seeds, steps int
}{
	{"direct", HierarchyConfig{
		L1:                LevelConfig{SizeBytes: 256, Ways: 1, LineBytes: 64, HitCycles: 1},
		L2:                LevelConfig{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitCycles: 12},
		Prefetch:          PrefetchConfig{Streams: 1, Degree: 1, TrainHits: 1},
		MLPWindow:         8,
		OverlapMissCycles: 24,
		FabricHitCycles:   8,
	}, 10, 2000},
	{"small", HierarchyConfig{
		L1:                LevelConfig{SizeBytes: 512, Ways: 2, LineBytes: 64, HitCycles: 1},
		L2:                LevelConfig{SizeBytes: 2 << 10, Ways: 4, LineBytes: 64, HitCycles: 12},
		Prefetch:          PrefetchConfig{Streams: 2, Degree: 3, TrainHits: 2},
		MLPWindow:         8,
		OverlapMissCycles: 24,
		FabricHitCycles:   8,
	}, 20, 3000},
	{"default", DefaultHierarchy(), 4, 2000},
}

// TestOnePassSetOpsMatchTwoPass drives random traces of Load,
// FillFromFabric and Reset through the hierarchy and the reference. Fabric
// fills of resident lines make an older way keep serving lookups of a line
// also held in a newer way. Costs, stats and the full simulator state must
// agree after every call.
func TestOnePassSetOpsMatchTwoPass(t *testing.T) {
	for _, geo := range differentialGeometries {
		t.Run(geo.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(geo.seeds); seed++ {
				g := newTraceGen(seed, geo.cfg)
				h := MustHierarchy(geo.cfg, dram.MustNew(dram.DefaultConfig()))
				ref := newRefHier(geo.cfg, dram.MustNew(dram.DefaultConfig()))
				for step := 0; step < geo.steps; step++ {
					var op string
					switch r := g.rng.Intn(500); {
					case r == 0:
						op = "Reset"
						h.Reset()
						ref.reset()
					case r < 90:
						addr := g.addr()
						op = fmt.Sprintf("FillFromFabric(%d)", addr)
						h.FillFromFabric(addr)
						ref.fillFromFabric(addr)
					default:
						addr := g.addr()
						op = fmt.Sprintf("Load(%d)", addr)
						if got, want := h.Load(addr), ref.load(addr); got != want {
							t.Fatalf("seed %d step %d: %s cost %d, reference %d", seed, step, op, got, want)
						}
					}
					checkSame(t, fmt.Sprintf("seed %d step %d %s", seed, step, op), h, ref)
				}
			}
		})
	}
}

// TestRunsMatchPerAddress drives random traces of LoadRuns — interleaved
// one- to five-stream runs whose strides fall below, at and above the line
// size and cross sets, pages and DRAM rows — mixed with Load,
// FillFromFabric, Reset and timeline ticks, through the hierarchy and the
// reference, which loads each run's addresses one by one. Both carry a
// timeline on the hierarchy and the DRAM module. Costs, stats, the full
// simulator state and the timeline's samples must agree after every call.
func TestRunsMatchPerAddress(t *testing.T) {
	for _, geo := range differentialGeometries {
		t.Run(geo.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(geo.seeds); seed++ {
				g := newTraceGen(seed, geo.cfg)
				h := MustHierarchy(geo.cfg, dram.MustNew(dram.DefaultConfig()))
				ref := newRefHier(geo.cfg, dram.MustNew(dram.DefaultConfig()))
				banks := dram.DefaultConfig().Banks
				tl, refTL := obs.NewTimeline(200, banks), obs.NewTimeline(200, banks)
				h.SetTimeline(tl)
				h.mem.SetTimeline(tl)
				ref.tl = refTL
				ref.mem.SetTimeline(refTL)
				for step := 0; step < geo.steps; step++ {
					var op string
					switch r := g.rng.Intn(500); {
					case r == 0:
						op = "Reset"
						h.Reset()
						ref.reset()
					case r < 40:
						addr := g.addr()
						op = fmt.Sprintf("FillFromFabric(%d)", addr)
						h.FillFromFabric(addr)
						ref.fillFromFabric(addr)
					case r < 80:
						addr := g.addr()
						op = fmt.Sprintf("Load(%d)", addr)
						if got, want := h.Load(addr), ref.load(addr); got != want {
							t.Fatalf("seed %d step %d: %s cost %d, reference %d", seed, step, op, got, want)
						}
					case r < 120:
						d := uint64(g.rng.Intn(400))
						op = fmt.Sprintf("Tick(%d)", d)
						tl.Tick(d)
						refTL.Tick(d)
					default:
						runs, streams := g.runs()
						op = fmt.Sprintf("LoadRuns(%v, %v)", runs, streams)
						if got, want := h.LoadRuns(runs, streams), ref.loadRuns(runs, streams); got != want {
							t.Fatalf("seed %d step %d: %s cost %d, reference %d", seed, step, op, got, want)
						}
					}
					where := fmt.Sprintf("seed %d step %d %s", seed, step, op)
					checkSame(t, where, h, ref)
					if got, want := tl.Samples(), refTL.Samples(); len(got) != len(want) ||
						len(got) > 0 && !reflect.DeepEqual(got[len(got)-1], want[len(want)-1]) {
						t.Fatalf("%s: timeline samples differ", where)
					}
				}
				tl.Finish(h.Stats().Cycles)
				refTL.Finish(ref.stats.Cycles)
				if !reflect.DeepEqual(tl.Samples(), refTL.Samples()) {
					t.Fatalf("seed %d: finished timelines differ", seed)
				}
			}
		})
	}
}
