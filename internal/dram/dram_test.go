package dram

import (
	"testing"
	"testing/quick"
)

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Banks = 0 },
		func(c *Config) { c.Banks = 3 },
		func(c *Config) { c.RowBufferLen = 1000 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.LineBytes = c.RowBufferLen * 2 },
		func(c *Config) { c.RowHitCycles = 0 },
		func(c *Config) { c.RowMissCycles = c.RowHitCycles - 1 },
		func(c *Config) { c.BurstBytes = 0 },
		func(c *Config) { c.BurstBytes = c.LineBytes * 2 },
		func(c *Config) { c.BandwidthBytesPerCycle = 0 },
		func(c *Config) { c.FabricPorts = 0 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRowBufferLocality(t *testing.T) {
	m := MustNew(DefaultConfig())
	first, _ := m.Access(0)
	second, _ := m.Access(64 * int64(m.Config().Banks)) // same bank, same row
	if first <= second {
		t.Errorf("first access (row miss, %d) should cost more than row hit (%d)", first, second)
	}
	st := m.Stats()
	if st.RowMisses != 1 || st.RowHits != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.RowHits, st.RowMisses)
	}
}

func TestBankInterleaving(t *testing.T) {
	m := MustNew(DefaultConfig())
	lb := int64(m.LineBytes())
	seen := map[int]bool{}
	for i := int64(0); i < int64(m.Config().Banks); i++ {
		_, bank := m.Access(i * lb)
		if bank != m.BankOf(i*lb) {
			t.Errorf("Access(%d) reports bank %d, BankOf says %d", i*lb, bank, m.BankOf(i*lb))
		}
		seen[bank] = true
	}
	if len(seen) != m.Config().Banks {
		t.Errorf("consecutive lines hit %d distinct banks, want %d", len(seen), m.Config().Banks)
	}
	// Same line offset maps to the same bank.
	_, b0 := m.Access(0)
	_, b63 := m.Access(63)
	if b0 != b63 {
		t.Error("addresses within one line map to different banks")
	}
}

func TestGatherBatchOverlapsBanks(t *testing.T) {
	cfg := DefaultConfig()
	lb := int64(cfg.LineBytes)
	gather := func(stride int64) uint64 {
		m := MustNew(cfg)
		var reqs []GatherReq
		for i := int64(0); i < 8; i++ {
			reqs = append(reqs, GatherReq{Addr: i * stride, Bytes: cfg.BurstBytes})
		}
		return m.GatherBatch(reqs)
	}
	// N bursts all to one bank serialize; spread over all banks they
	// overlap.
	serial := gather(lb * int64(cfg.Banks))
	parallel := gather(lb)
	if parallel >= serial {
		t.Errorf("bank-parallel batch (%d) not faster than single-bank batch (%d)", parallel, serial)
	}
}

func TestGatherBatchBurstGranularity(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNew(cfg)
	// 4 bytes at offset 0: one burst.
	m.GatherBatch([]GatherReq{{Addr: 0, Bytes: 4}})
	if got := m.Stats().BytesRead; got != uint64(cfg.BurstBytes) {
		t.Errorf("4-byte gather read %d bytes, want one %d-byte burst", got, cfg.BurstBytes)
	}
	m.ResetStats()
	// A range straddling a burst boundary: two bursts.
	m.GatherBatch([]GatherReq{{Addr: int64(cfg.BurstBytes) - 2, Bytes: 4}})
	if got := m.Stats().BytesRead; got != uint64(2*cfg.BurstBytes) {
		t.Errorf("straddling gather read %d bytes, want %d", got, 2*cfg.BurstBytes)
	}
	m.ResetStats()
	// Zero/negative requests are ignored.
	if got := m.GatherBatch([]GatherReq{{Addr: 0, Bytes: 0}}); got != 0 {
		t.Errorf("empty gather cost %d", got)
	}
}

func TestGatherBytesTracked(t *testing.T) {
	m := MustNew(DefaultConfig())
	m.Access(0)
	m.GatherBatch([]GatherReq{{Addr: 4096, Bytes: 32}})
	st := m.Stats()
	if st.GatherBytes != 32 {
		t.Errorf("GatherBytes = %d, want 32", st.GatherBytes)
	}
	if st.BytesRead != 64+32 {
		t.Errorf("BytesRead = %d, want 96", st.BytesRead)
	}
}

func TestOccupancyFloors(t *testing.T) {
	m := MustNew(DefaultConfig())
	if got := m.OccupancyCycles(128); got != 64 {
		t.Errorf("OccupancyCycles(128) = %d, want 64 at 2 B/cycle", got)
	}
	if got := m.FabricOccupancyCycles(128); got != 32 {
		t.Errorf("FabricOccupancyCycles(128) = %d, want 32 at 2 ports", got)
	}
}

func TestGatherSharesRowBufferWithCPU(t *testing.T) {
	m := MustNew(DefaultConfig())
	m.Access(0) // opens the row on bank 0
	before := m.Stats().RowMisses
	m.GatherBatch([]GatherReq{{Addr: 8, Bytes: 4}}) // same line, same open row
	if got := m.Stats().RowMisses; got != before {
		t.Errorf("gather to an open row caused a row miss")
	}
}

func TestReset(t *testing.T) {
	m := MustNew(DefaultConfig())
	m.Access(0)
	m.Reset()
	if m.Stats() != (Stats{}) {
		t.Error("Reset did not clear stats")
	}
	// Row buffers are closed again: first access misses.
	m.Access(0)
	if m.Stats().RowMisses != 1 {
		t.Error("Reset did not close row buffers")
	}
}

func TestArena(t *testing.T) {
	a := MustArena(100, 64)
	first := a.Alloc(10)
	if first != 128 {
		t.Errorf("first alloc at %d, want 128 (aligned up from 100)", first)
	}
	second := a.Alloc(64)
	if second != 192 {
		t.Errorf("second alloc at %d, want 192", second)
	}
	third := a.Alloc(1)
	if third != 256 {
		t.Errorf("third alloc at %d, want 256", third)
	}
	if _, err := NewArena(0, 3); err == nil {
		t.Error("non-power-of-two alignment accepted")
	}
	if _, err := NewArena(-1, 64); err == nil {
		t.Error("negative base accepted")
	}
}

// TestArenaDisjointProperty: arena allocations never overlap and are
// aligned.
func TestArenaDisjointProperty(t *testing.T) {
	check := func(sizes []uint16) bool {
		a := MustArena(0, 64)
		prevEnd := int64(0)
		for _, s := range sizes {
			start := a.Alloc(int64(s))
			if start%64 != 0 || start < prevEnd {
				return false
			}
			prevEnd = start + int64(s)
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestGatherCostNeverBelowFloor: for arbitrary gathers, the critical path
// returned is at least the fabric-port bandwidth floor of the bytes moved.
func TestGatherCostNeverBelowFloor(t *testing.T) {
	check := func(addrs []uint16, width uint8) bool {
		if len(addrs) == 0 {
			return true
		}
		m := MustNew(DefaultConfig())
		reqs := make([]GatherReq, len(addrs))
		w := int(width%64) + 1
		for i, a := range addrs {
			reqs[i] = GatherReq{Addr: int64(a), Bytes: w}
		}
		cost := m.GatherBatch(reqs)
		return cost >= m.FabricOccupancyCycles(m.Stats().BytesRead)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
