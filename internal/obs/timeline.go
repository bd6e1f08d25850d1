package obs

import (
	"encoding/json"
	"sort"
)

// DefaultTimelineInterval is the sample spacing (in modeled CPU cycles) used
// when a Timeline is created with interval 0.
const DefaultTimelineInterval = 10_000

// TimelineSample is one sampled window of a query's execution. Each sample
// covers the modeled-cycle range (Cycle-Window, Cycle]; rates and occupancy
// fractions are computed over that window only, so the series shows *when*
// during the query the row buffer thrashed or the fabric pipeline stalled,
// not just the end-of-query averages the Breakdown reports.
type TimelineSample struct {
	// Cycle is the window's end position on the query's attributed-cycle
	// axis (the same axis the span tree reconciles against).
	Cycle uint64 `json:"cycle"`
	// Window is the width of the sampled window. Samples are emitted at the
	// first progress point at or after each interval boundary, so Window is
	// at least the configured interval (except for the final partial one).
	Window uint64 `json:"window"`

	// DRAM: line/burst accesses served in the window and how they hit the
	// open row buffers.
	DRAMAccesses     uint64  `json:"dram_accesses"`
	RowBufferHitRate float64 `json:"row_buffer_hit_rate"`
	// BankOccupancy is each bank's busy cycles divided by the window. A
	// value above 1.0 means the bank was charged more occupancy than the
	// window exposed as latency (overlapped misses, batched gathers).
	BankOccupancy []float64 `json:"bank_occupancy"`

	// Cache: demand loads in the window and the fraction that missed to
	// DRAM.
	CacheLoads     uint64  `json:"cache_loads"`
	CacheMissRatio float64 `json:"cache_miss_ratio"`

	// Fabric: datapath-busy and stalled (waiting on DRAM gathers or refill
	// handshakes) fractions of the window. Both are 0 for windows where the
	// fabric produced nothing.
	FabricOccupancy float64 `json:"fabric_occupancy"`
	FabricStall     float64 `json:"fabric_stall"`

	// WorkersBusy is the average number of parallel workers (PAR morsels)
	// executing during the window, reconstructed from the
	// deterministic schedule. 0 for single-goroutine paths.
	WorkersBusy float64 `json:"workers_busy"`
}

// WorkerSlice is one scheduled execution slice on a parallel worker lane: a
// morsel run placed at its deterministic list-scheduling start.
type WorkerSlice struct {
	Worker int    `json:"worker"`
	Name   string `json:"name"`
	Start  uint64 `json:"start"`
	Cycles uint64 `json:"cycles"`
}

// Timeline samples hardware state every ~interval modeled cycles while a
// query runs. The dram/cache/fabric layers feed it through cheap nil-safe
// hooks (the same zero-overhead pattern as Tracer: a nil *Timeline no-ops
// every method), and the executing engine advances the clock with Tick at
// its natural progress points (per row for demand paths, per chunk for the
// RM pipeline). Like the simulated System it observes, a Timeline is
// single-goroutine state.
type Timeline struct {
	interval uint64
	banks    int

	now      uint64
	lastEmit uint64
	finished bool

	samples []TimelineSample
	slices  []WorkerSlice

	// Window accumulators, zeroed at each emitted sample.
	winAccesses uint64
	winHits     uint64
	winMisses   uint64
	winBankBusy []uint64
	winLoads    uint64
	winFills    uint64
	winFabBusy  uint64
	winFabStall uint64
}

// NewTimeline creates a sampler emitting every interval modeled cycles
// (DefaultTimelineInterval when 0) over a module with banks DRAM banks.
func NewTimeline(interval uint64, banks int) *Timeline {
	if interval == 0 {
		interval = DefaultTimelineInterval
	}
	if banks < 0 {
		banks = 0
	}
	return &Timeline{interval: interval, banks: banks, winBankBusy: make([]uint64, banks)}
}

// Interval returns the configured sample spacing.
func (t *Timeline) Interval() uint64 {
	if t == nil {
		return 0
	}
	return t.interval
}

// DRAMAccess records one DRAM access (a demand line fill or one gather
// burst) charged cost cycles against bank, hitting or missing the open row.
// Nil-safe.
func (t *Timeline) DRAMAccess(bank int, cost uint64, rowHit bool) {
	if t == nil {
		return
	}
	t.winAccesses++
	if rowHit {
		t.winHits++
	} else {
		t.winMisses++
	}
	if bank >= 0 && bank < len(t.winBankBusy) {
		t.winBankBusy[bank] += cost
	}
}

// CacheLoad records one demand load; fill marks a miss that went to DRAM.
// Nil-safe.
func (t *Timeline) CacheLoad(fill bool) {
	if t == nil {
		return
	}
	t.winLoads++
	if fill {
		t.winFills++
	}
}

// CacheHits records n demand loads that hit. Nil-safe.
func (t *Timeline) CacheHits(n uint64) {
	if t == nil {
		return
	}
	t.winLoads += n
}

// FabricChunk records one buffer refill: busy cycles the datapath spent
// packing and stall cycles it waited on DRAM gathers or the refill
// handshake. Nil-safe.
func (t *Timeline) FabricChunk(busy, stall uint64) {
	if t == nil {
		return
	}
	t.winFabBusy += busy
	t.winFabStall += stall
}

// AddWorkerSlice records one scheduled parallel execution (a morsel) for
// the worker lanes. Nil-safe.
func (t *Timeline) AddWorkerSlice(worker int, name string, start, cycles uint64) {
	if t == nil {
		return
	}
	t.slices = append(t.slices, WorkerSlice{Worker: worker, Name: name, Start: start, Cycles: cycles})
}

// Tick advances the query clock by delta attributed cycles and emits a
// sample whenever the clock crosses an interval boundary. Nil-safe.
func (t *Timeline) Tick(delta uint64) {
	if t == nil || delta == 0 || t.finished {
		return
	}
	t.now += delta
	if t.now-t.lastEmit >= t.interval {
		t.emit()
	}
}

// TickThrough advances the clock from its current position to total in
// interval-sized steps. Coordinator paths (PAR scans and joins) use
// it because their workers run on unhooked System clones: stepping the
// clock keeps the worker-occupancy series resolved across the makespan
// instead of collapsing it into one trailing window. Nil-safe.
func (t *Timeline) TickThrough(total uint64) {
	if t == nil {
		return
	}
	for t.now < total {
		d := t.interval
		if rem := total - t.now; rem < d {
			d = rem
		}
		t.Tick(d)
	}
}

// emit closes the current window into a sample and resets the accumulators.
func (t *Timeline) emit() {
	win := t.now - t.lastEmit
	if win == 0 {
		return
	}
	s := TimelineSample{
		Cycle:         t.now,
		Window:        win,
		DRAMAccesses:  t.winAccesses,
		CacheLoads:    t.winLoads,
		BankOccupancy: make([]float64, len(t.winBankBusy)),
	}
	if rows := t.winHits + t.winMisses; rows > 0 {
		s.RowBufferHitRate = float64(t.winHits) / float64(rows)
	}
	for i, busy := range t.winBankBusy {
		s.BankOccupancy[i] = float64(busy) / float64(win)
		t.winBankBusy[i] = 0
	}
	if t.winLoads > 0 {
		s.CacheMissRatio = float64(t.winFills) / float64(t.winLoads)
	}
	s.FabricOccupancy = float64(t.winFabBusy) / float64(win)
	s.FabricStall = float64(t.winFabStall) / float64(win)
	t.samples = append(t.samples, s)

	t.winAccesses, t.winHits, t.winMisses = 0, 0, 0
	t.winLoads, t.winFills = 0, 0
	t.winFabBusy, t.winFabStall = 0, 0
	t.lastEmit = t.now
}

// Finish advances the clock to totalCycles (the run's Breakdown.TotalCycles,
// covering any trailing stall the engines never ticked), emits the final
// partial window, and fills the per-sample WorkersBusy series from the
// recorded worker slices. Nil-safe; further hooks after Finish are ignored.
func (t *Timeline) Finish(totalCycles uint64) {
	if t == nil || t.finished {
		return
	}
	if totalCycles > t.now {
		t.now = totalCycles
	}
	if t.now > t.lastEmit {
		t.emit()
	}
	if len(t.slices) > 0 {
		for i := range t.samples {
			s := &t.samples[i]
			var busy uint64
			lo := s.Cycle - s.Window
			for _, sl := range t.slices {
				busy += overlap(lo, s.Cycle, sl.Start, sl.Start+sl.Cycles)
			}
			s.WorkersBusy = float64(busy) / float64(s.Window)
		}
	}
	t.finished = true
}

// overlap returns the length of the intersection of [aLo,aHi) and [bLo,bHi).
func overlap(aLo, aHi, bLo, bHi uint64) uint64 {
	if bLo > aLo {
		aLo = bLo
	}
	if bHi < aHi {
		aHi = bHi
	}
	if aHi <= aLo {
		return 0
	}
	return aHi - aLo
}

// Now returns the clock's current position in attributed cycles.
func (t *Timeline) Now() uint64 {
	if t == nil {
		return 0
	}
	return t.now
}

// Samples returns the emitted samples.
func (t *Timeline) Samples() []TimelineSample {
	if t == nil {
		return nil
	}
	return t.samples
}

// WorkerSlices returns the recorded parallel execution slices, sorted by
// (worker, start) for deterministic rendering.
func (t *Timeline) WorkerSlices() []WorkerSlice {
	if t == nil {
		return nil
	}
	out := append([]WorkerSlice(nil), t.slices...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// timelineJSON is the marshaled shape of a Timeline.
type timelineJSON struct {
	Interval    uint64           `json:"interval"`
	TotalCycles uint64           `json:"total_cycles"`
	Samples     []TimelineSample `json:"samples"`
	Workers     []WorkerSlice    `json:"workers,omitempty"`
}

// MarshalJSON renders the timeline deterministically.
func (t *Timeline) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	samples := t.samples
	if samples == nil {
		samples = []TimelineSample{}
	}
	return json.Marshal(timelineJSON{
		Interval:    t.interval,
		TotalCycles: t.now,
		Samples:     samples,
		Workers:     t.WorkerSlices(),
	})
}
