package cache

import (
	"testing"
	"testing/quick"

	"rfabric/internal/dram"
)

func newTestHierarchy(t *testing.T, cfg HierarchyConfig) *Hierarchy {
	t.Helper()
	mem := dram.MustNew(dram.DefaultConfig())
	h, err := NewHierarchy(cfg, mem)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	return h
}

// tiny returns a small hierarchy whose capacity effects are easy to hit:
// 1 KiB 2-way L1, 4 KiB 4-way L2, no prefetch, no MLP.
func tiny(t *testing.T) *Hierarchy {
	return newTestHierarchy(t, HierarchyConfig{
		L1:       LevelConfig{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitCycles: 1},
		L2:       LevelConfig{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, HitCycles: 10},
		Prefetch: PrefetchConfig{Streams: 0, Degree: 0, TrainHits: 1},
	})
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultHierarchy().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []HierarchyConfig{
		{L1: LevelConfig{SizeBytes: 100, Ways: 2, LineBytes: 64, HitCycles: 1}, L2: DefaultHierarchy().L2, Prefetch: DefaultPrefetch()},
		{L1: DefaultHierarchy().L1, L2: LevelConfig{SizeBytes: 1 << 20, Ways: 16, LineBytes: 128, HitCycles: 12}, Prefetch: DefaultPrefetch()},
		// More ways than a set record's recency order can rank.
		{L1: DefaultHierarchy().L1, L2: LevelConfig{SizeBytes: 512 * 64, Ways: 512, LineBytes: 64, HitCycles: 12}, Prefetch: DefaultPrefetch()},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	widest := DefaultHierarchy()
	widest.L2 = LevelConfig{SizeBytes: 256 * 64, Ways: 256, LineBytes: 64, HitCycles: 12}
	if err := widest.Validate(); err != nil {
		t.Errorf("fully associative 256-way L2 rejected: %v", err)
	}
	cfg := DefaultHierarchy()
	cfg.MLPWindow = 4
	cfg.OverlapMissCycles = 0
	if err := cfg.Validate(); err == nil {
		t.Error("MLP window without overlap cost accepted")
	}
}

func TestHitMissLadder(t *testing.T) {
	h := tiny(t)
	missCost := h.Load(0)
	l1Cost := h.Load(8) // same line: L1 hit
	if l1Cost != 1 {
		t.Errorf("L1 hit cost %d, want 1", l1Cost)
	}
	if missCost <= l1Cost {
		t.Errorf("miss (%d) not more expensive than L1 hit (%d)", missCost, l1Cost)
	}
	st := h.Stats()
	if st.Loads != 2 || st.L1Hits != 1 || st.DRAMFills != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := tiny(t)
	// L1: 1 KiB, 2-way, 64 B lines -> 8 sets. Lines 0 and 8*64*k share set 0.
	h.Load(0)
	h.Load(8 * 64)  // same L1 set, way 2
	h.Load(16 * 64) // evicts line 0 from L1 (LRU); L2 still holds it
	cost := h.Load(0)
	if want := uint64(1 + 10); cost != want {
		t.Errorf("L2 hit cost %d, want %d", cost, want)
	}
	if got := h.Stats().L2Hits; got != 1 {
		t.Errorf("L2Hits = %d, want 1", got)
	}
}

func TestLRUWithinSet(t *testing.T) {
	h := tiny(t)
	h.Load(0)      // set 0
	h.Load(8 * 64) // set 0, second way
	h.Load(0)      // refresh line 0
	h.Load(16 * 64)
	// line 8*64 was LRU and must be gone from L1; line 0 must remain.
	if !h.ContainsL1(0) {
		t.Error("recently used line evicted")
	}
	if h.ContainsL1(8 * 64) {
		t.Error("LRU line survived")
	}
}

func TestPrefetcherCoversSequentialStream(t *testing.T) {
	cfg := DefaultHierarchy()
	h := newTestHierarchy(t, cfg)
	// Walk 64 sequential lines; after training, prefetch should turn most
	// line transitions into L2 hits.
	for i := int64(0); i < 64; i++ {
		h.Load(i * 64)
	}
	st := h.Stats()
	if st.PrefetchIssued == 0 {
		t.Fatal("prefetcher never fired on a sequential stream")
	}
	if st.PrefetchHits == 0 {
		t.Fatal("no load ever hit a prefetched line")
	}
	if st.DRAMFills > 10 {
		t.Errorf("%d demand fills on a covered stream, want few", st.DRAMFills)
	}
}

func TestPrefetcherStreamLimitThrashes(t *testing.T) {
	run := func(streams int) Stats {
		cfg := DefaultHierarchy()
		cfg.Prefetch.Streams = streams
		cfg.MLPWindow = 0
		h := newTestHierarchy(t, cfg)
		// 8 interleaved sequential streams, 1 MB apart.
		for i := int64(0); i < 256; i++ {
			for s := int64(0); s < 8; s++ {
				h.Load(s<<20 | i*64)
			}
		}
		return h.Stats()
	}
	few := run(2)
	many := run(16)
	if few.DRAMFills <= many.DRAMFills {
		t.Errorf("2-stream budget (%d demand fills) should miss more than 16-stream (%d)",
			few.DRAMFills, many.DRAMFills)
	}
}

func TestMLPOverlapsCrossBankMisses(t *testing.T) {
	base := DefaultHierarchy()
	base.Prefetch.Streams = 0

	noMLP := base
	noMLP.MLPWindow = 0
	hSerial := newTestHierarchy(t, noMLP)

	withMLP := base
	hOverlap := newTestHierarchy(t, withMLP)

	// Back-to-back misses to different banks (consecutive lines).
	var serial, overlap uint64
	for i := int64(0); i < 16; i++ {
		serial += hSerial.Load(i * 64)
		overlap += hOverlap.Load(i * 64)
	}
	if overlap >= serial {
		t.Errorf("MLP-overlapped misses (%d) not cheaper than serialized (%d)", overlap, serial)
	}
	if hOverlap.Stats().OverlappedMisses == 0 {
		t.Error("no miss was overlapped")
	}
}

func TestMLPRequiresDistinctBanks(t *testing.T) {
	cfg := DefaultHierarchy()
	cfg.Prefetch.Streams = 0
	h := newTestHierarchy(t, cfg)
	// All misses to the same bank (stride of Banks lines): never overlapped.
	stride := int64(cfg.L1.LineBytes * 8)
	for i := int64(0); i < 16; i++ {
		h.Load(i * stride)
	}
	if got := h.Stats().OverlappedMisses; got != 0 {
		t.Errorf("%d same-bank misses were overlapped", got)
	}
}

func TestFillFromFabric(t *testing.T) {
	cfg := DefaultHierarchy()
	h := newTestHierarchy(t, cfg)
	h.FillFromFabric(1 << 20)
	if !h.ContainsL2(1 << 20) {
		t.Fatal("fabric fill not resident in L2")
	}
	memBefore := h.DRAM().Stats().Accesses
	first := h.Load(1 << 20)
	if h.DRAM().Stats().Accesses != memBefore {
		t.Error("hit on fabric-filled line went to DRAM")
	}
	// First touch pays the delivery surcharge; second (L1) does not.
	second := h.Load(1<<20 + 8)
	wantFirst := uint64(cfg.L1.HitCycles + cfg.L2.HitCycles + cfg.FabricHitCycles)
	if first != wantFirst {
		t.Errorf("first fabric-line touch cost %d, want %d", first, wantFirst)
	}
	if second != uint64(cfg.L1.HitCycles) {
		t.Errorf("second touch cost %d, want L1 hit", second)
	}
	if got := h.Stats().FabricFills; got != 1 {
		t.Errorf("FabricFills = %d", got)
	}
}

func TestResetClearsEverything(t *testing.T) {
	h := newTestHierarchy(t, DefaultHierarchy())
	for i := int64(0); i < 32; i++ {
		h.Load(i * 64)
	}
	h.Reset()
	if h.Stats() != (Stats{}) {
		t.Error("stats survive Reset")
	}
	if h.ContainsL1(0) || h.ContainsL2(0) {
		t.Error("contents survive Reset")
	}
}

// TestInclusionProperty: after arbitrary loads, every line in L1 is backed
// by the simulation having loaded it, and repeated loads of a resident line
// always cost exactly the L1 hit time.
func TestRepeatLoadStableProperty(t *testing.T) {
	cfg := DefaultHierarchy()
	check := func(addrs []uint32) bool {
		h := newTestHierarchy(t, cfg)
		for _, a := range addrs {
			h.Load(int64(a))
		}
		for _, a := range addrs[:min(len(addrs), 4)] {
			h.Load(int64(a)) // ensure resident
			if h.Load(int64(a)) != uint64(cfg.L1.HitCycles) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCostMonotonicProperty: total cycles never decrease as loads are
// issued, and bytes from DRAM are a multiple of the line size.
func TestCostMonotonicProperty(t *testing.T) {
	check := func(addrs []uint32) bool {
		h := newTestHierarchy(t, DefaultHierarchy())
		var prev uint64
		for _, a := range addrs {
			h.Load(int64(a))
			st := h.Stats()
			if st.Cycles < prev {
				return false
			}
			prev = st.Cycles
			if st.BytesFromDRAM%uint64(h.LineBytes()) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
