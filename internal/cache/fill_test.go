package cache

import (
	"math/rand"
	"slices"
	"testing"

	"rfabric/internal/dram"
)

// The one-pass set operations behind FillFromFabric and issuePrefetch must
// leave the simulator in exactly the state the two-pass sequences they
// replaced did. The reference below is a copy of that logic — the level
// probes and the Load/train/prefetch/fill paths built on them — driven
// side by side with the real hierarchy over random traces.

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
	line := h.lineOf(addr)
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

// sameLevel reports whether two levels hold identical state.
func sameLevel(a, b *level) bool {
	return a.tick == b.tick && slices.Equal(a.tags, b.tags) && slices.Equal(a.lru, b.lru) &&
		slices.Equal(a.prefetched, b.prefetched) && slices.Equal(a.fabricNew, b.fabricNew)
}

// TestOnePassSetOpsMatchTwoPass drives random Load/FillFromFabric traces
// through the hierarchy and the reference copy of the two-pass logic. A
// small, low-associativity L2 and a narrow address domain make evictions,
// prefetches of resident lines, and fabric fills of already-resident lines
// (whose older way keeps serving lookups) common. Stats, per-load costs,
// residency, and the full level state must agree after every step.
func TestOnePassSetOpsMatchTwoPass(t *testing.T) {
	cfg := HierarchyConfig{
		L1:                LevelConfig{SizeBytes: 512, Ways: 2, LineBytes: 64, HitCycles: 1},
		L2:                LevelConfig{SizeBytes: 2 << 10, Ways: 4, LineBytes: 64, HitCycles: 12},
		Prefetch:          PrefetchConfig{Streams: 2, Degree: 3, TrainHits: 2},
		MLPWindow:         8,
		OverlapMissCycles: 24,
		FabricHitCycles:   8,
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := MustHierarchy(cfg, dram.MustNew(dram.DefaultConfig()))
		ref := MustHierarchy(cfg, dram.MustNew(dram.DefaultConfig()))
		next := int64(0)
		for step := 0; step < 4000; step++ {
			addr := int64(rng.Intn(96)) * 64
			if rng.Intn(3) == 0 { // sequential runs train the prefetcher
				next += 64
				addr = next % (96 * 64)
			}
			addr += int64(rng.Intn(64))
			if rng.Intn(3) == 0 {
				h.FillFromFabric(addr)
				ref.refFillFromFabric(addr)
			} else if got, want := h.Load(addr), ref.refLoad(addr); got != want {
				t.Fatalf("seed %d step %d: Load(%d) cost %d, reference %d", seed, step, addr, got, want)
			}
			if h.Stats() != ref.Stats() {
				t.Fatalf("seed %d step %d: stats\n got  %+v\n want %+v", seed, step, h.Stats(), ref.Stats())
			}
			if h.ContainsL1(addr) != ref.l1.refContains(addr) || h.ContainsL2(addr) != ref.l2.refContains(addr) {
				t.Fatalf("seed %d step %d: residency of %d differs", seed, step, addr)
			}
			if !sameLevel(h.l1, ref.l1) || !sameLevel(h.l2, ref.l2) {
				t.Fatalf("seed %d step %d: level state differs after op on %d", seed, step, addr)
			}
		}
	}
}
