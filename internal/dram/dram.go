// Package dram models a banked DRAM module with row-buffer locality and
// bank-level parallelism. It is the bottom of the simulated memory hierarchy:
// the cache simulator sends it line fills, and the Relational Memory fabric
// issues gather requests directly against it, exploiting multiple banks in
// parallel exactly as the paper's FPGA engine exploits "the inherent
// parallelism of memory cells" (Relational Fabric, ICDE 2023, §II, §IV-A).
//
// The model is deliberately simple — fixed cycle charges for row-buffer hits
// and misses, interleaved bank mapping, per-bank open-row state — because the
// paper's results depend on *how many* lines move and *how parallel* the
// fetches are, not on exact DDR4 timings.
package dram

import (
	"fmt"

	"rfabric/internal/obs"
)

// Config parameterizes the DRAM module. All latencies are in CPU cycles.
type Config struct {
	Banks        int // number of independent banks (power of two)
	RowBufferLen int // bytes per open row buffer ("DRAM page")
	LineBytes    int // transfer granularity toward caches/fabric

	RowHitCycles  int // access latency when the open row matches (CAS only)
	RowMissCycles int // precharge + activate + CAS
	BurstCycles   int // data-transfer cycles per line once the row is open

	// BurstBytes is the finest transfer the module supports. The CPU path
	// always moves whole cache lines, but a near-data requester (the fabric)
	// can gather at burst granularity — the mechanism behind "issues parallel
	// main memory requests for the target data" (§IV-A): it pays for the
	// bytes it asks for, rounded up to bursts, not for whole lines.
	BurstBytes int

	// BandwidthBytesPerCycle is the peak transfer rate of one port toward
	// the CPU complex. Whatever latency overlap a requester achieves, no
	// engine can stream data faster than this; experiment harnesses use it
	// as the occupancy floor time >= BytesRead / BandwidthBytesPerCycle.
	BandwidthBytesPerCycle float64

	// FabricPorts is how many memory ports the near-data fabric aggregates.
	// On the paper's platform the programmable logic masters several
	// high-performance AXI ports into the DDR controller, so its aggregate
	// gather bandwidth exceeds the single CPU-cluster port. Gathers are
	// floored at FabricPorts x BandwidthBytesPerCycle.
	FabricPorts int
}

// DefaultConfig mirrors a small LPDDR-class part behind a 1.5 GHz CPU: the
// absolute values are round numbers, the ratios (miss ≈ 3× hit, many banks)
// are what shape the experiments.
func DefaultConfig() Config {
	return Config{
		Banks:                  8,
		RowBufferLen:           2048,
		LineBytes:              64,
		RowHitCycles:           40,
		RowMissCycles:          120,
		BurstCycles:            4,
		BurstBytes:             16,
		BandwidthBytesPerCycle: 2,
		FabricPorts:            2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("dram: Banks must be a positive power of two, got %d", c.Banks)
	}
	if c.RowBufferLen <= 0 || c.RowBufferLen&(c.RowBufferLen-1) != 0 {
		return fmt.Errorf("dram: RowBufferLen must be a positive power of two, got %d", c.RowBufferLen)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("dram: LineBytes must be a positive power of two, got %d", c.LineBytes)
	}
	if c.LineBytes > c.RowBufferLen {
		return fmt.Errorf("dram: LineBytes (%d) exceeds RowBufferLen (%d)", c.LineBytes, c.RowBufferLen)
	}
	if c.RowHitCycles <= 0 || c.RowMissCycles < c.RowHitCycles || c.BurstCycles < 0 {
		return fmt.Errorf("dram: inconsistent latencies hit=%d miss=%d burst=%d", c.RowHitCycles, c.RowMissCycles, c.BurstCycles)
	}
	if c.BurstBytes <= 0 || c.BurstBytes&(c.BurstBytes-1) != 0 || c.BurstBytes > c.LineBytes {
		return fmt.Errorf("dram: BurstBytes must be a power of two no larger than LineBytes, got %d", c.BurstBytes)
	}
	if c.BandwidthBytesPerCycle <= 0 {
		return fmt.Errorf("dram: BandwidthBytesPerCycle must be positive, got %g", c.BandwidthBytesPerCycle)
	}
	if c.FabricPorts <= 0 {
		return fmt.Errorf("dram: FabricPorts must be positive, got %d", c.FabricPorts)
	}
	return nil
}

// Stats accumulates access counts and cycle totals.
type Stats struct {
	Accesses     uint64 // line-granularity accesses served
	RowHits      uint64
	RowMisses    uint64
	BytesRead    uint64
	GatherBytes  uint64 // subset of BytesRead moved through GatherBatch
	Cycles       uint64 // total serialized cycles charged
	BatchCycles  uint64 // cycles charged through GatherBatch (parallel path)
	BatchedReqs  uint64 // requests that went through GatherBatch
	BatchesTotal uint64 // GatherBatch calls
}

// Module is a banked DRAM timing model. It is not safe for concurrent use;
// each simulated hierarchy owns one.
type Module struct {
	cfg     Config
	openRow []int64 // per-bank open row id, -1 when closed
	stats   Stats
	tl      *obs.Timeline // optional cycle sampler; nil-safe hooks

	bankShift uint // log2(LineBytes): bank selected by line index
	bankMask  int64
	rowShift  uint // log2(RowBufferLen * Banks): row id within bank

	// gatherPerBank is GatherBatch's per-bank cycle accumulator, kept on the
	// module so the hot gather path allocates nothing per batch.
	gatherPerBank []uint64
}

// New returns a module with all banks closed.
func New(cfg Config) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Module{cfg: cfg, openRow: make([]int64, cfg.Banks), gatherPerBank: make([]uint64, cfg.Banks)}
	for i := range m.openRow {
		m.openRow[i] = -1
	}
	m.bankShift = log2(int64(cfg.LineBytes))
	m.bankMask = int64(cfg.Banks - 1)
	m.rowShift = log2(int64(cfg.RowBufferLen) * int64(cfg.Banks))
	return m, nil
}

// MustNew is New panicking on error, for fixtures.
func MustNew(cfg Config) *Module {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func log2(v int64) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

// Config returns the module configuration.
func (m *Module) Config() Config { return m.cfg }

// Clone returns a fresh module with the same configuration: all banks
// closed, zero statistics. Parallel executors give each worker its own
// clone because a Module is single-owner state.
func (m *Module) Clone() *Module { return MustNew(m.cfg) }

// SetTimeline attaches (or, with nil, detaches) a cycle sampler. Clones do
// not inherit it: parallel workers run on private modules whose accesses
// would double-count against the shared query timeline.
func (m *Module) SetTimeline(tl *obs.Timeline) { m.tl = tl }

// Stats returns a copy of the accumulated statistics.
func (m *Module) Stats() Stats { return m.stats }

// ResetStats zeroes counters but keeps open-row state.
func (m *Module) ResetStats() { m.stats = Stats{} }

// Reset closes all rows and zeroes statistics.
func (m *Module) Reset() {
	for i := range m.openRow {
		m.openRow[i] = -1
	}
	m.stats = Stats{}
}

// bankOf maps a byte address to its bank: consecutive lines interleave
// across banks, the standard mapping that makes sequential streams use all
// banks and strided streams collide.
func (m *Module) bankOf(addr int64) int {
	return int((addr >> m.bankShift) & m.bankMask)
}

// rowOf maps a byte address to its row id within the bank.
func (m *Module) rowOf(addr int64) int64 {
	return addr >> m.rowShift
}

// Access serves one line-granularity read at addr and returns its cycle
// cost and the bank that served it. The address is truncated to line
// alignment. The cache layer uses the bank to model miss overlap: demand
// misses headed to distinct banks can be in flight simultaneously.
func (m *Module) Access(addr int64) (cycles uint64, bank int) {
	bank = m.bankOf(addr)
	row := m.rowOf(addr)
	hit := m.openRow[bank] == row
	if hit {
		m.stats.RowHits++
		cycles = uint64(m.cfg.RowHitCycles)
	} else {
		m.stats.RowMisses++
		m.openRow[bank] = row
		cycles = uint64(m.cfg.RowMissCycles)
	}
	cycles += uint64(m.cfg.BurstCycles)
	m.tl.DRAMAccess(bank, cycles, hit)
	m.stats.Accesses++
	m.stats.BytesRead += uint64(m.cfg.LineBytes)
	m.stats.Cycles += cycles
	return cycles, bank
}

// LineBytes returns the configured transfer granularity.
func (m *Module) LineBytes() int { return m.cfg.LineBytes }

// BankOf exposes the address-to-bank mapping, the one Access reports.
func (m *Module) BankOf(addr int64) int { return m.bankOf(addr) }
