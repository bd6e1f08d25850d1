// Package fabric implements Relational Memory, the first instance of the
// Relational Fabric vision (ICDE 2023): a near-data transformation engine
// that sits between the processor and DRAM and converts row-oriented base
// data into arbitrary column groups on the fly. Nothing is materialized in
// main memory — the engine gathers exactly the requested bytes from each
// row, packs them densely into cache lines, and delivers them toward the
// CPU, so the processor sees the optimal layout "as if it already exists in
// memory" (§II).
//
// The engine performs the paper's four key hardware operations (§IV-A):
//
//  1. receive the access stride of the query and issue parallel memory
//     requests for the target data (GatherBatch against the banked DRAM
//     model, at burst rather than cache-line granularity);
//  2. assemble multiple entries into packed cache lines;
//  3. capture the CPU requests (the ephemeral view's delivery window);
//  4. transfer the reorganized data upon availability (chunked through the
//     bounded on-fabric buffer, "refilling it whenever it is full", §V).
//
// Beyond projection it implements the paper's §III-C and §IV-B extensions:
// MVCC visibility filtering via the two per-row timestamps in hardware, and
// selection/aggregation pushdown.
package fabric

import (
	"errors"
	"fmt"

	"rfabric/internal/dram"
	"rfabric/internal/obs"
)

// Config parameterizes the fabric hardware.
type Config struct {
	// BufferBytes is the on-fabric data memory that holds packed output
	// before the CPU consumes it. The paper's prototype has 2 MB (§V).
	BufferBytes int
	// ClockRatio is CPU cycles per fabric cycle. The prototype's
	// programmable logic runs at 100 MHz against 1.5 GHz cores → 15.
	ClockRatio int
	// MaxOutstanding bounds how many gather requests the engine keeps in
	// flight per round — its request-queue depth toward DRAM.
	MaxOutstanding int
	// RowsPerCycle is the datapath's row rate: how many row descriptors the
	// pipeline can retire per fabric cycle when rows are narrow.
	RowsPerCycle int
	// BeatBytes is the datapath width: how many gathered bytes the pipeline
	// moves per fabric cycle when rows are wide. Per chunk the datapath
	// costs max(rows/RowsPerCycle, gatheredBytes/BeatBytes) fabric cycles.
	BeatBytes int
	// TSCheckCycles is extra fabric cycles per row for the MVCC timestamp
	// comparison (§III-C). The default is 0: the comparators evaluate
	// combinationally inside the row's pipeline slot; a nonzero value
	// models a narrower comparator array that stalls the pipeline.
	TSCheckCycles int
	// PredicateCycles is extra fabric cycles per predicate per row for
	// selection pushdown (§IV-B); 0 means pipeline-parallel, like TSCheck.
	PredicateCycles int
	// AggregateCycles is fabric cycles per aggregated value for aggregation
	// pushdown (§IV-B).
	AggregateCycles int
	// DecodeCycles is fabric cycles per compressed-domain entry decoded when
	// a scan evaluates predicates directly over encoded data (one dictionary
	// entry or one RLE run value per unit). Charging it here keeps decode
	// work near memory, off the CPU's bytes-to-CPU bill.
	DecodeCycles int
	// RefillCycles is the fixed CPU-cycle cost of one buffer refill
	// round-trip (reconfigure the gather window, re-arm delivery). It is
	// what makes very small on-fabric buffers pay for their extra refills
	// (§V "refilling it whenever it is full").
	RefillCycles int
}

// DefaultConfig mirrors the paper's prototype proportions.
func DefaultConfig() Config {
	return Config{
		BufferBytes:     2 << 20,
		ClockRatio:      15,
		MaxOutstanding:  64,
		RowsPerCycle:    1,
		BeatBytes:       64,
		TSCheckCycles:   0,
		PredicateCycles: 0,
		AggregateCycles: 1,
		DecodeCycles:    1,
		RefillCycles:    1500,
	}
}

// ReplayCycles is the producer time of replaying one cached chunk of
// chunkBytes packed bytes (ReplayChunk): its beats across the datapath, in
// CPU cycles, plus one refill handshake.
func (c Config) ReplayCycles(chunkBytes int) uint64 {
	beats := uint64((chunkBytes + c.BeatBytes - 1) / c.BeatBytes)
	return beats*uint64(c.ClockRatio) + uint64(c.RefillCycles)
}

// FoldCycles is the CPU-cycle charge of an offloaded aggregation's final
// fold over results (group, aggregate) values: one fold each, shipped at
// the end of the program (RunOffload).
func (c Config) FoldCycles(results uint64) uint64 {
	return results * uint64(c.AggregateCycles) * uint64(c.ClockRatio)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BufferBytes <= 0 {
		return fmt.Errorf("fabric: BufferBytes must be positive, got %d", c.BufferBytes)
	}
	if c.ClockRatio <= 0 {
		return fmt.Errorf("fabric: ClockRatio must be positive, got %d", c.ClockRatio)
	}
	if c.MaxOutstanding <= 0 {
		return fmt.Errorf("fabric: MaxOutstanding must be positive, got %d", c.MaxOutstanding)
	}
	if c.RowsPerCycle <= 0 || c.BeatBytes <= 0 {
		return fmt.Errorf("fabric: datapath rates must be positive, got rows/cycle=%d beat=%d", c.RowsPerCycle, c.BeatBytes)
	}
	if c.TSCheckCycles < 0 || c.PredicateCycles < 0 || c.AggregateCycles < 0 || c.DecodeCycles < 0 || c.RefillCycles < 0 {
		return fmt.Errorf("fabric: negative cycle cost in %+v", c)
	}
	return nil
}

// Stats accumulates fabric-side counters across all ephemeral views of one
// engine.
type Stats struct {
	RowsScanned   uint64 // source row versions examined
	RowsShipped   uint64 // rows that passed visibility+selection and were packed
	BytesShipped  uint64 // packed bytes delivered toward the CPU
	LinesShipped  uint64 // packed cache lines delivered
	BytesGathered uint64 // bytes requested from DRAM (burst granularity)
	GatherCycles  uint64 // CPU cycles spent on DRAM-side gathers (critical paths)
	ComputeCycles uint64 // CPU-cycle cost of fabric datapath work
	Chunks        uint64 // buffer refills
	Aggregates    uint64 // aggregation-pushdown results produced

	RowsSemiFiltered uint64 // rows dropped by a Bloom semi-join pre-filter
	RowsCodeFiltered uint64 // rows dropped by a code-domain dictionary filter
	EntriesDecoded   uint64 // compressed-domain entries decoded fabric-side
}

// Engine is one fabric device attached to a DRAM module. Ephemeral views
// are configured against it. Not safe for concurrent use.
type Engine struct {
	cfg   Config
	mem   *dram.Module
	arena *dram.Arena
	stats Stats
	tl    *obs.Timeline // optional cycle sampler; nil-safe hooks
}

// New attaches a fabric engine to the DRAM module; delivery windows are
// allocated from arena.
func New(cfg Config, mem *dram.Module, arena *dram.Arena) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, errors.New("fabric: nil DRAM module")
	}
	if arena == nil {
		return nil, errors.New("fabric: nil arena")
	}
	return &Engine{cfg: cfg, mem: mem, arena: arena}, nil
}

// MustNew is New panicking on error, for fixtures.
func MustNew(cfg Config, mem *dram.Module, arena *dram.Arena) *Engine {
	e, err := New(cfg, mem, arena)
	if err != nil {
		panic(err)
	}
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Clone returns a fresh engine with the same configuration attached to mem,
// allocating delivery windows from arena. Parallel executors give each
// worker its own clone; an Engine is single-owner state.
func (e *Engine) Clone(mem *dram.Module, arena *dram.Arena) (*Engine, error) {
	return New(e.cfg, mem, arena)
}

// SetTimeline attaches (or, with nil, detaches) a cycle sampler. Clones do
// not inherit it (see dram.Module.SetTimeline).
func (e *Engine) SetTimeline(tl *obs.Timeline) { e.tl = tl }

// Stats returns a copy of the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes the counters.
func (e *Engine) ResetStats() { e.stats = Stats{} }

// DRAM returns the module the engine gathers from.
func (e *Engine) DRAM() *dram.Module { return e.mem }

// computeCPUCycles converts fabric cycles to CPU cycles.
func (e *Engine) computeCPUCycles(fabricCycles uint64) uint64 {
	return fabricCycles * uint64(e.cfg.ClockRatio)
}

// ReplayChunk charges the delivery of one cached column-group chunk out of a
// persistent buffer and returns its producer cycles. A replay streams already
// packed bytes across the datapath — it pays the beat-rate shipping cost and
// the refill handshake but no DRAM gathers, no visibility or predicate
// checks, and no row-rate packing, which is exactly the warm/cold asymmetry
// the group cache exists to exploit. Counters move accordingly: shipped
// bytes/lines/rows and compute advance, gather- and scan-side counters do
// not.
func (e *Engine) ReplayChunk(rows, chunkBytes int) uint64 {
	producer := e.cfg.ReplayCycles(chunkBytes)
	compute := producer - uint64(e.cfg.RefillCycles)
	e.tl.FabricChunk(compute, producer-compute)
	e.stats.RowsShipped += uint64(rows)
	e.stats.BytesShipped += uint64(chunkBytes)
	lineBytes := e.mem.LineBytes()
	e.stats.LinesShipped += uint64((chunkBytes + lineBytes - 1) / lineBytes)
	e.stats.ComputeCycles += compute
	e.stats.Chunks++
	return producer
}
