package fabric

import (
	"fmt"
	"sync"

	"rfabric/internal/dram"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// Sequence-aware column-group cache. The paper's fabric tears down every
// ephemeral view when its query finishes, so a dashboard-style sequence of
// similar queries re-pays the full gather-and-pack cost each time. ReProVide
// makes the case for reusing the accelerator configuration the previous
// query left behind; this cache is that idea applied to Relational Memory:
// a packed column group, once produced, stays resident in a persistent
// delivery buffer and later queries over the same (table, geometry,
// snapshot, pushed predicates) replay its chunks out of the buffer instead
// of re-gathering from DRAM.
//
// Entries are reference-counted (a query holds its entry pinned while
// consuming it), evicted LRU by modeled bytes when the configured capacity
// is exceeded, and invalidated two ways: per-table epochs bumped by the DB
// façade on writes and DDL, and the table's own mutation counter
// (table.Version), which catches writers that hold the raw *Table handle
// and bypass the façade entirely.

// groupKey identifies one cached column group: the table (by identity), the
// geometry's column set in pack order, the MVCC snapshot the group was
// packed at, and any predicates that were pushed into the fabric (a pushed
// selection changes which rows the group contains).
type groupKey struct {
	tbl     *table.Table
	cols    string
	hasSnap bool
	snap    uint64
	preds   string
}

func makeGroupKey(tbl *table.Table, geom *geometry.Geometry, snap *uint64, preds expr.Conjunction) groupKey {
	k := groupKey{tbl: tbl, cols: fmt.Sprint(geom.Columns())}
	if snap != nil {
		k.hasSnap, k.snap = true, *snap
	}
	if len(preds) > 0 {
		k.preds = preds.Format(tbl.Schema())
	}
	return k
}

// CachedChunk is one buffer refill's worth of packed rows inside an entry,
// addressed relative to the entry's base.
type CachedChunk struct {
	Off        int    // byte offset in the entry (line-aligned)
	Len        int    // packed bytes (Rows * PackedWidth)
	Rows       int    // packed rows delivered by this chunk
	SourceRows int    // source row versions the cold run scanned for it
	Data       []byte // the packed bytes (read-only), Len of them
}

// GroupEntry is one resident column group: the packed bytes of every chunk
// the cold run delivered, laid out at line-aligned offsets from a stable
// simulated address so replayed chunks fill the same hierarchy lines on
// every hit.
type GroupEntry struct {
	key      groupKey
	chunks   []CachedChunk
	packed   int
	baseAddr int64
	bytes    int64
	epoch    uint64
	version  uint64 // table.Version at install time
	refs     int32  // guarded by the cache mutex
	lastUse  uint64
}

// Chunks returns the entry's chunk directory.
func (e *GroupEntry) Chunks() []CachedChunk { return e.chunks }

// BaseAddr returns the simulated address of offset 0.
func (e *GroupEntry) BaseAddr() int64 { return e.baseAddr }

// PackedWidth returns bytes per packed row.
func (e *GroupEntry) PackedWidth() int { return e.packed }

// Bytes returns the entry's modeled footprint (packing plus alignment).
func (e *GroupEntry) Bytes() int64 { return e.bytes }

// GroupCacheStats reports cache behaviour. Hits through Invalidations are
// monotonic counters; BytesCached and Entries are occupancy gauges.
type GroupCacheStats struct {
	Hits          uint64
	Misses        uint64
	Installs      uint64
	Evictions     uint64
	Invalidations uint64
	BytesCached   uint64
	Entries       uint64
}

// Delta returns the counters accumulated since prev; the occupancy gauges
// pass through at their current values.
func (s GroupCacheStats) Delta(prev GroupCacheStats) GroupCacheStats {
	return GroupCacheStats{
		Hits:          s.Hits - prev.Hits,
		Misses:        s.Misses - prev.Misses,
		Installs:      s.Installs - prev.Installs,
		Evictions:     s.Evictions - prev.Evictions,
		Invalidations: s.Invalidations - prev.Invalidations,
		BytesCached:   s.BytesCached,
		Entries:       s.Entries,
	}
}

// GroupCache is the sequence-aware cache of packed column groups. Safe for
// concurrent use: acquire, release, install, and invalidation all serialize
// on one mutex, and entry data is immutable after install, so a holder keeps
// reading a consistent group even if the entry is invalidated or evicted
// under it (the arena never reuses addresses).
type GroupCache struct {
	mu       sync.Mutex
	capacity int64
	arena    *dram.Arena
	entries  map[groupKey]*GroupEntry
	epochs   map[*table.Table]uint64
	bytes    int64
	tick     uint64
	stats    GroupCacheStats
}

// NewGroupCache builds a cache bounded by capacityBytes of modeled packed
// data, backing entries with addresses from arena.
func NewGroupCache(capacityBytes int64, arena *dram.Arena) *GroupCache {
	return &GroupCache{
		capacity: capacityBytes,
		arena:    arena,
		entries:  map[groupKey]*GroupEntry{},
		epochs:   map[*table.Table]uint64{},
	}
}

// Capacity returns the configured byte bound.
func (c *GroupCache) Capacity() int64 {
	if c == nil {
		return 0
	}
	return c.capacity
}

// Stats returns a snapshot of the counters and occupancy gauges. Nil-safe.
func (c *GroupCache) Stats() GroupCacheStats {
	if c == nil {
		return GroupCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.BytesCached = uint64(c.bytes)
	s.Entries = uint64(len(c.entries))
	return s
}

// stale reports whether e no longer reflects its table: either the façade
// bumped the table's epoch (write/DDL through the DB) or the table's own
// mutation counter moved (a raw-handle writer).
func (c *GroupCache) stale(e *GroupEntry) bool {
	return e.epoch != c.epochs[e.key.tbl] || e.version != e.key.tbl.Version()
}

// dropLocked removes an entry from the cache. Holders of acquired references
// keep their immutable data; only residency ends.
func (c *GroupCache) dropLocked(e *GroupEntry) {
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// Acquire looks up the group for (tbl, geom, snap, preds) and pins it. A
// stale entry is dropped and reported as a miss. The caller must Release the
// entry exactly once when done consuming it.
func (c *GroupCache) Acquire(tbl *table.Table, geom *geometry.Geometry, snap *uint64, preds expr.Conjunction) (*GroupEntry, bool) {
	if c == nil {
		return nil, false
	}
	key := makeGroupKey(tbl, geom, snap, preds)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok && c.stale(e) {
		c.dropLocked(e)
		c.stats.Invalidations++
		ok = false
	}
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	e.refs++
	c.tick++
	e.lastUse = c.tick
	return e, true
}

// Release unpins an acquired entry.
func (c *GroupCache) Release(e *GroupEntry) {
	if c == nil || e == nil {
		return
	}
	c.mu.Lock()
	if e.refs > 0 {
		e.refs--
	}
	c.mu.Unlock()
}

// Peek reports whether the group is resident and fresh — the optimizer's
// warm-vs-cold probe — and returns its chunk directory (read-only), what a
// warm replay would deliver. It does not count as a hit or a miss and does
// not pin.
func (c *GroupCache) Peek(tbl *table.Table, geom *geometry.Geometry, snap *uint64, preds expr.Conjunction) ([]CachedChunk, bool) {
	if c == nil {
		return nil, false
	}
	key := makeGroupKey(tbl, geom, snap, preds)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || c.stale(e) {
		return nil, false
	}
	return e.chunks, true
}

// Invalidate bumps tbl's epoch and drops every resident group over it. The
// DB façade calls this on writes; DDL goes through InvalidateAll.
func (c *GroupCache) Invalidate(tbl *table.Table) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochs[tbl]++
	for _, e := range c.entries {
		if e.key.tbl == tbl {
			c.dropLocked(e)
			c.stats.Invalidations++
		}
	}
}

// InvalidateAll drops every resident group (catalog-wide DDL).
func (c *GroupCache) InvalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		c.dropLocked(e)
		c.stats.Invalidations++
	}
}

// evictLocked makes room for need bytes by dropping least-recently-used
// unpinned entries. Returns false when pinned entries keep the cache over
// capacity.
func (c *GroupCache) evictLocked(need int64) bool {
	for c.bytes+need > c.capacity {
		var victim *GroupEntry
		for _, e := range c.entries {
			if e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return false
		}
		c.dropLocked(victim)
		c.stats.Evictions++
	}
	return true
}

// GroupRecorder captures a cold run's chunks as they are delivered and
// installs them as one entry when the scan completes. The key and table
// version are pinned at creation, so a group recorded over a table that
// mutates before install simply fails the freshness check later.
type GroupRecorder struct {
	cache   *GroupCache
	key     groupKey
	version uint64
	packed  int
	align   int
	size    int // bytes recorded: the chunks at their line-aligned offsets
	chunks  []CachedChunk
	done    bool
}

// NewRecorder starts capturing one group. align is the cache-line size the
// chunk offsets are padded to, so every replayed chunk starts line-aligned
// exactly like the cold delivery window does.
func (c *GroupCache) NewRecorder(tbl *table.Table, geom *geometry.Geometry, snap *uint64, preds expr.Conjunction, packed, align int) *GroupRecorder {
	if c == nil {
		return nil
	}
	if align <= 0 {
		align = 64
	}
	return &GroupRecorder{
		cache:   c,
		key:     makeGroupKey(tbl, geom, snap, preds),
		version: tbl.Version(),
		packed:  packed,
		align:   align,
	}
}

// Add records one delivered chunk at the next line-aligned offset. The
// recording keeps data, which the caller hands over (Ephemeral.Keep).
// Nil-safe.
func (r *GroupRecorder) Add(data []byte, rows, sourceRows int) {
	if r == nil || r.done {
		return
	}
	if pad := r.size % r.align; pad != 0 {
		r.size += r.align - pad
	}
	r.chunks = append(r.chunks, CachedChunk{Off: r.size, Len: len(data), Rows: rows, SourceRows: sourceRows, Data: data})
	r.size += len(data)
}

// Install publishes the recording as a resident entry, evicting LRU unpinned
// entries to fit. Groups larger than the whole cache are not installed.
// Idempotent: only the first call publishes.
func (r *GroupRecorder) Install() {
	if r == nil || r.done {
		return
	}
	r.done = true
	c := r.cache
	size := int64(r.size)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.capacity {
		return
	}
	if old, ok := c.entries[r.key]; ok {
		// A concurrent cold run over the same group raced us here; replace.
		c.dropLocked(old)
	}
	if !c.evictLocked(size) {
		return
	}
	e := &GroupEntry{
		key:      r.key,
		chunks:   r.chunks,
		packed:   r.packed,
		baseAddr: c.arena.Alloc(size),
		bytes:    size,
		epoch:    c.epochs[r.key.tbl],
		version:  r.version,
	}
	c.tick++
	e.lastUse = c.tick
	c.entries[r.key] = e
	c.bytes += size
	c.stats.Installs++
}
