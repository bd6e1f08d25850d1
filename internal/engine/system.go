package engine

import (
	"rfabric/internal/cache"
	"rfabric/internal/dram"
	"rfabric/internal/fabric"
	"rfabric/internal/obs"
)

// SystemConfig bundles the full simulated platform: DRAM, cache hierarchy,
// and the fabric device.
type SystemConfig struct {
	DRAM   dram.Config
	Cache  cache.HierarchyConfig
	Fabric fabric.Config
}

// DefaultSystemConfig mirrors the paper's target platform proportions (§V).
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		DRAM:   dram.DefaultConfig(),
		Cache:  cache.DefaultHierarchy(),
		Fabric: fabric.DefaultConfig(),
	}
}

// System is one simulated machine instance: a DRAM module shared by the CPU
// cache hierarchy and the fabric engine, plus an address arena for placing
// tables, column arrays, and delivery windows. Engines executing on the same
// System share cache and DRAM state, like processes on one machine; the
// experiment harness builds a fresh System per measured run.
type System struct {
	Cfg   SystemConfig
	Mem   *dram.Module
	Hier  *cache.Hierarchy
	Fab   *fabric.Engine
	Arena *dram.Arena

	// replay is the batch pipeline's replay hand-off, kept between the
	// System's scans (see loadBuf.lease); nil while a scan holds it.
	replay *replayer

	// prices memoizes the optimizer's sample runs over this machine's
	// tables (see price); they run on machines of their own.
	prices priceMemo
}

// NewSystem builds a machine from cfg.
func NewSystem(cfg SystemConfig) (*System, error) { return newSystemAt(cfg, 0) }

// newSystemAt builds a machine from cfg whose arena starts at base.
func newSystemAt(cfg SystemConfig, base int64) (*System, error) {
	mem, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.Cache, mem)
	if err != nil {
		return nil, err
	}
	arena, err := dram.NewArena(base, int64(cfg.DRAM.LineBytes))
	if err != nil {
		return nil, err
	}
	fab, err := fabric.New(cfg.Fabric, mem, arena)
	if err != nil {
		return nil, err
	}
	return &System{Cfg: cfg, Mem: mem, Hier: hier, Fab: fab, Arena: arena}, nil
}

// MustSystem is NewSystem panicking on error, for fixtures.
func MustSystem(cfg SystemConfig) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// AttachTimeline points every hardware layer's sampler hook at tl for the
// duration of one traced query. Pass nil (or call DetachTimeline) to stop
// sampling. Clones made while attached do not inherit the hook.
func (s *System) AttachTimeline(tl *obs.Timeline) {
	s.Mem.SetTimeline(tl)
	s.Hier.SetTimeline(tl)
	s.Fab.SetTimeline(tl)
}

// DetachTimeline removes the sampler hooks installed by AttachTimeline.
func (s *System) DetachTimeline() { s.AttachTimeline(nil) }

// HWStats is a simulated machine's counters: DRAM, cache hierarchy, and
// fabric.
type HWStats struct {
	Mem  dram.Stats
	Hier cache.Stats
	Fab  fabric.Stats
}

// HW snapshots the machine's counters.
func (s *System) HW() HWStats {
	return HWStats{Mem: s.Mem.Stats(), Hier: s.Hier.Stats(), Fab: s.Fab.Stats()}
}

// Delta returns the counters accumulated since prev.
func (h HWStats) Delta(prev HWStats) HWStats {
	return HWStats{Mem: h.Mem.Delta(prev.Mem), Hier: h.Hier.Delta(prev.Hier), Fab: h.Fab.Delta(prev.Fab)}
}

// Add returns the component-wise sum of h and o.
func (h HWStats) Add(o HWStats) HWStats {
	return HWStats{Mem: h.Mem.Add(o.Mem), Hier: h.Hier.Add(o.Hier), Fab: h.Fab.Add(o.Fab)}
}

// ResetState flushes caches, DRAM row buffers, and all statistics, keeping
// allocations. Call it between measured runs on a shared System.
func (s *System) ResetState() {
	s.Hier.Reset()
	s.Mem.Reset()
	s.Fab.ResetStats()
}

// Clone builds an independent machine with the same configuration: fresh
// DRAM module, cold caches, fresh fabric engine, zero statistics. The
// clone's arena starts at the parent arena's next free address, so objects
// placed in the parent (tables, column arrays) never collide with the
// clone's own allocations (fabric delivery windows).
//
// Ownership rule: a System and everything hanging off it (Mem, Hier, Fab)
// is single-goroutine state — none of it is safe for concurrent use.
// Concurrent executors must each own a clone and never share one; the
// parent may be read (Cfg, Arena.Next) but not driven while clones run.
// `go test -race ./...` enforces this throughout the repository.
func (s *System) Clone() (*System, error) {
	mem := s.Mem.Clone()
	hier, err := s.Hier.Clone(mem)
	if err != nil {
		return nil, err
	}
	arena, err := dram.NewArena(s.Arena.Next(), int64(s.Cfg.DRAM.LineBytes))
	if err != nil {
		return nil, err
	}
	fab, err := s.Fab.Clone(mem, arena)
	if err != nil {
		return nil, err
	}
	return &System{Cfg: s.Cfg, Mem: mem, Hier: hier, Fab: fab, Arena: arena}, nil
}
