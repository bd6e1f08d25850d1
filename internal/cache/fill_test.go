package cache

import (
	"math/rand"
	"slices"
	"testing"

	"rfabric/internal/dram"
)

// The fast paths of the simulator — the per-set way hint, the one-pass
// probe that hands its miss victim to the install, the one-pass stream
// search, and the batched LoadAddrs entry — must leave it in exactly the
// state the plain two-pass logic did. The reference below is a copy of that
// logic (full set scans, lookup then insert, two prefetcher loops, one Load
// per address), driven side by side with the real hierarchy over random
// traces.

func (l *level) refLookup(addr int64) (int, bool) {
	line := addr >> l.lineBits
	set := int(line & l.setMask)
	base := set * l.cfg.Ways
	for w := 0; w < l.cfg.Ways; w++ {
		if l.tags[base+w] == line+1 {
			l.tick++
			l.lru[base+w] = l.tick
			return base + w, true
		}
	}
	return -1, false
}

func (l *level) refInsert(addr int64, prefetch bool) int {
	line := addr >> l.lineBits
	set := int(line & l.setMask)
	base := set * l.cfg.Ways
	victim := base
	for w := 1; w < l.cfg.Ways; w++ {
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

func (l *level) refContains(addr int64) bool {
	line := addr >> l.lineBits
	set := int(line & l.setMask)
	base := set * l.cfg.Ways
	for w := 0; w < l.cfg.Ways; w++ {
		if l.tags[base+w] == line+1 {
			return true
		}
	}
	return false
}

func (h *Hierarchy) refLoad(addr int64) uint64 {
	h.stats.Loads++
	h.loadsSinceMiss++
	cost := uint64(h.cfg.L1.HitCycles)
	line := addr >> h.l1.lineBits
	if line == h.lastL1Line && h.lastL1Slot >= 0 {
		h.l1.tick++
		h.l1.lru[h.lastL1Slot] = h.l1.tick
		h.stats.L1Hits++
		h.stats.Cycles += cost
		return cost
	}
	if slot, ok := h.l1.refLookup(addr); ok {
		h.lastL1Line = line
		h.lastL1Slot = slot
		h.stats.L1Hits++
		h.stats.Cycles += cost
		return cost
	}
	cost += uint64(h.cfg.L2.HitCycles)
	if slot, ok := h.l2.refLookup(addr); ok {
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
		h.lastL1Slot = h.l1.refInsert(addr, false)
		h.refTrain(addr)
		h.stats.Cycles += cost
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
	h.stats.BytesFromDRAM += uint64(h.LineBytes())
	h.l2.refInsert(addr, false)
	h.lastL1Line = line
	h.lastL1Slot = h.l1.refInsert(addr, false)
	h.refTrain(addr)
	h.stats.Cycles += cost
	return cost
}

func (h *Hierarchy) refTrain(addr int64) {
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
			h.refIssuePrefetch(line+1, h.cfg.Prefetch.Degree)
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
	h.streams[victim] = stream{nextLine: line + 1, hits: 1, lastUse: h.tick, valid: true}
}

func (h *Hierarchy) refIssuePrefetch(line int64, n int) {
	lb := int64(h.LineBytes())
	for i := 0; i < n; i++ {
		addr := (line + int64(i)) * lb
		if h.l2.refContains(addr) {
			continue
		}
		h.mem.Access(addr)
		h.l2.refInsert(addr, true)
		h.stats.PrefetchIssued++
		h.stats.BytesFromDRAM += uint64(h.LineBytes())
	}
}

func (h *Hierarchy) refFillFromFabric(addr int64) {
	h.stats.FabricFills++
	h.l2.refInsert(addr, false)
	if slot, ok := h.l2.refLookup(addr); ok {
		h.l2.fabricNew[slot] = true
	}
}

func (h *Hierarchy) refLoadAddrs(addrs []int64) uint64 {
	var total uint64
	for _, a := range addrs {
		total += h.refLoad(a)
	}
	return total
}

// sameLevel reports whether two levels hold identical state.
func sameLevel(a, b *level) bool {
	return a.tick == b.tick && slices.Equal(a.tags, b.tags) && slices.Equal(a.lru, b.lru) &&
		slices.Equal(a.prefetched, b.prefetched) && slices.Equal(a.fabricNew, b.fabricNew)
}

// checkSame fails the test unless h and the reference agree on statistics,
// DRAM statistics, the prefetcher, the MLP tracker, the residency of addr, and
// the full state of both levels.
func checkSame(t *testing.T, step int, op string, h, ref *Hierarchy, addr int64) {
	t.Helper()
	if h.Stats() != ref.Stats() {
		t.Fatalf("step %d %s: stats\n got  %+v\n want %+v", step, op, h.Stats(), ref.Stats())
	}
	if h.mem.Stats() != ref.mem.Stats() {
		t.Fatalf("step %d %s: DRAM stats differ", step, op)
	}
	if h.tick != ref.tick || !slices.Equal(h.streams, ref.streams) ||
		h.loadsSinceMiss != ref.loadsSinceMiss || h.lastMissBank != ref.lastMissBank || h.sawMiss != ref.sawMiss {
		t.Fatalf("step %d %s: prefetcher or MLP state differs", step, op)
	}
	if h.ContainsL1(addr) != ref.l1.refContains(addr) || h.ContainsL2(addr) != ref.l2.refContains(addr) {
		t.Fatalf("step %d %s: residency of %d differs", step, op, addr)
	}
	if !sameLevel(h.l1, ref.l1) || !sameLevel(h.l2, ref.l2) {
		t.Fatalf("step %d %s: level state differs after op on %d", step, op, addr)
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

// batch returns a base address and offsets from it that mix repeats of the
// previous line, recent lines, and fresh draws.
func (g *traceGen) batch() (int64, []int64) {
	base := g.addr()
	offs := make([]int64, g.rng.Intn(24))
	prev := int64(0)
	for i := range offs {
		switch g.rng.Intn(3) {
		case 0:
			offs[i] = prev + int64(g.rng.Intn(8)) // usually the same line
		default:
			offs[i] = g.addr() - base
		}
		prev = offs[i]
	}
	return base, offs
}

// TestOnePassSetOpsMatchTwoPass drives random traces of Load, LoadAddrs,
// FillFromFabric and Reset through the hierarchy and the reference copy of
// the two-pass logic, on a small low-associativity geometry and on the
// default one (16-way L2, 4 streams of degree 4). Fabric fills of resident
// lines make an older way keep serving lookups of a line also held in a
// newer way. Costs, stats, residency and the full simulator state must agree
// after every call.
func TestOnePassSetOpsMatchTwoPass(t *testing.T) {
	geometries := []struct {
		name         string
		cfg          HierarchyConfig
		seeds, steps int
	}{
		{"small", HierarchyConfig{
			L1:                LevelConfig{SizeBytes: 512, Ways: 2, LineBytes: 64, HitCycles: 1},
			L2:                LevelConfig{SizeBytes: 2 << 10, Ways: 4, LineBytes: 64, HitCycles: 12},
			Prefetch:          PrefetchConfig{Streams: 2, Degree: 3, TrainHits: 2},
			MLPWindow:         8,
			OverlapMissCycles: 24,
			FabricHitCycles:   8,
		}, 20, 4000},
		{"default", DefaultHierarchy(), 4, 3000},
	}
	for _, geo := range geometries {
		t.Run(geo.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(geo.seeds); seed++ {
				g := newTraceGen(seed, geo.cfg)
				h := MustHierarchy(geo.cfg, dram.MustNew(dram.DefaultConfig()))
				ref := MustHierarchy(geo.cfg, dram.MustNew(dram.DefaultConfig()))
				for step := 0; step < geo.steps; step++ {
					var addr int64
					var op string
					switch r := g.rng.Intn(500); {
					case r == 0:
						op = "Reset"
						h.Reset()
						ref.Reset()
					case r < 90:
						op = "FillFromFabric"
						addr = g.addr()
						h.FillFromFabric(addr)
						ref.refFillFromFabric(addr)
					case r < 180:
						op = "LoadAddrs"
						base, offs := g.batch()
						addrs := make([]int64, len(offs))
						for i, off := range offs {
							addrs[i] = base + off
						}
						if got, want := h.LoadAddrs(addrs), ref.refLoadAddrs(addrs); got != want {
							t.Fatalf("seed %d step %d: LoadAddrs(%v) cost %d, reference %d", seed, step, addrs, got, want)
						}
						addr = base
					default:
						op = "Load"
						addr = g.addr()
						if got, want := h.Load(addr), ref.refLoad(addr); got != want {
							t.Fatalf("seed %d step %d: Load(%d) cost %d, reference %d", seed, step, addr, got, want)
						}
					}
					checkSame(t, step, op, h, ref, addr)
				}
			}
		})
	}
}
