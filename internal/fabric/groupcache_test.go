package fabric

import (
	"sync"
	"testing"

	"rfabric/internal/dram"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

func gcFixture(t *testing.T) (*table.Table, *geometry.Schema) {
	t.Helper()
	sch := geometry.MustSchema(
		geometry.Column{Name: "a", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "b", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "c", Type: geometry.Int32, Width: 4},
	)
	tbl, err := table.New("gc", sch, table.WithCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	row := make([]byte, sch.RowBytes())
	for i := 0; i < 8; i++ {
		if _, err := tbl.AppendRaw(1, row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, sch
}

func gcGeom(t *testing.T, sch *geometry.Schema, cols ...int) *geometry.Geometry {
	t.Helper()
	g, err := geometry.NewGeometry(sch, cols...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func gcInstall(t *testing.T, c *GroupCache, tbl *table.Table, geom *geometry.Geometry, chunkBytes int) {
	t.Helper()
	rec := c.NewRecorder(tbl, geom, nil, nil, 4, 64)
	rec.Add(make([]byte, chunkBytes), chunkBytes/4, chunkBytes/4)
	rec.Install()
}

func newArena(t *testing.T) *dram.Arena {
	t.Helper()
	a, err := dram.NewArena(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGroupCacheHitAndRelease(t *testing.T) {
	tbl, sch := gcFixture(t)
	c := NewGroupCache(1<<20, newArena(t))
	geom := gcGeom(t, sch, 0)

	if _, ok := c.Acquire(tbl, geom, nil, nil); ok {
		t.Fatal("empty cache reported a hit")
	}
	gcInstall(t, c, tbl, geom, 256)
	e, ok := c.Acquire(tbl, geom, nil, nil)
	if !ok {
		t.Fatal("installed group missed")
	}
	if e.PackedWidth() != 4 || len(e.Chunks()) != 1 || e.Chunks()[0].Rows != 64 {
		t.Fatalf("entry shape: packed=%d chunks=%+v", e.PackedWidth(), e.Chunks())
	}
	c.Release(e)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Installs != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if chunks, ok := c.Peek(tbl, geom, nil, nil); !ok || len(chunks) != 1 || chunks[0].Len != 256 {
		t.Fatalf("peek: %+v ok=%v", chunks, ok)
	}
	if got := c.Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("Peek perturbed counters: %+v", got)
	}
}

func TestGroupCacheLRUEvictionByBytes(t *testing.T) {
	tbl, sch := gcFixture(t)
	c := NewGroupCache(1024, newArena(t))
	g0, g1, g2 := gcGeom(t, sch, 0), gcGeom(t, sch, 1), gcGeom(t, sch, 2)

	gcInstall(t, c, tbl, g0, 512)
	gcInstall(t, c, tbl, g1, 512)
	// Touch g1 so g0 is the LRU victim when g2 needs room.
	if e, ok := c.Acquire(tbl, g1, nil, nil); ok {
		c.Release(e)
	} else {
		t.Fatal("g1 missed before eviction")
	}
	gcInstall(t, c, tbl, g2, 512)

	if _, ok := c.Peek(tbl, g0, nil, nil); ok {
		t.Fatal("LRU entry g0 survived eviction")
	}
	if _, ok := c.Peek(tbl, g1, nil, nil); !ok {
		t.Fatal("recently used g1 was evicted")
	}
	if _, ok := c.Peek(tbl, g2, nil, nil); !ok {
		t.Fatal("newly installed g2 not resident")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.BytesCached != 1024 {
		t.Fatalf("stats after eviction: %+v", st)
	}

	// A group larger than the whole cache is never installed.
	gcInstall(t, c, tbl, gcGeom(t, sch, 0, 1), 2048)
	if _, ok := c.Peek(tbl, gcGeom(t, sch, 0, 1), nil, nil); ok {
		t.Fatal("oversized group was installed")
	}
}

func TestGroupCachePinBlocksEviction(t *testing.T) {
	tbl, sch := gcFixture(t)
	c := NewGroupCache(1024, newArena(t))
	g0, g1 := gcGeom(t, sch, 0), gcGeom(t, sch, 1)

	gcInstall(t, c, tbl, g0, 1024)
	e, ok := c.Acquire(tbl, g0, nil, nil)
	if !ok {
		t.Fatal("pinned group missed")
	}
	// Installing g1 needs the pinned entry's bytes; it must fail, not evict.
	gcInstall(t, c, tbl, g1, 512)
	if _, ok := c.Peek(tbl, g0, nil, nil); !ok {
		t.Fatal("pinned entry was evicted")
	}
	if _, ok := c.Peek(tbl, g1, nil, nil); ok {
		t.Fatal("install succeeded despite a pinned cache-full entry")
	}
	// The pinned holder keeps consistent data regardless.
	if ch := e.Chunks(); len(ch) != 1 || len(ch[0].Data) != 1024 {
		t.Fatalf("pinned chunks %+v", ch)
	}
	c.Release(e)
	gcInstall(t, c, tbl, g1, 512)
	if _, ok := c.Peek(tbl, g1, nil, nil); !ok {
		t.Fatal("install still failing after release")
	}
}

func TestGroupCacheEpochAndVersionInvalidation(t *testing.T) {
	tbl, sch := gcFixture(t)
	c := NewGroupCache(1<<20, newArena(t))
	geom := gcGeom(t, sch, 0)

	gcInstall(t, c, tbl, geom, 256)
	c.Invalidate(tbl)
	if _, ok := c.Peek(tbl, geom, nil, nil); ok {
		t.Fatal("entry survived façade invalidation")
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("stats after invalidate: %+v", st)
	}

	// Raw-handle writes move table.Version; a group recorded before the
	// write is stale even though no façade epoch was bumped.
	gcInstall(t, c, tbl, geom, 256)
	if _, err := tbl.AppendRaw(1, make([]byte, sch.RowBytes())); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Acquire(tbl, geom, nil, nil); ok {
		t.Fatal("entry survived a raw-handle write")
	}
	if st := c.Stats(); st.Invalidations != 2 {
		t.Fatalf("version staleness not counted: %+v", st)
	}

	// A recorder opened before a write installs a group that is already
	// stale; it must never serve a hit.
	rec := c.NewRecorder(tbl, geom, nil, nil, 4, 64)
	rec.Add(make([]byte, 128), 32, 32)
	if _, err := tbl.AppendRaw(1, make([]byte, sch.RowBytes())); err != nil {
		t.Fatal(err)
	}
	rec.Install()
	if _, ok := c.Acquire(tbl, geom, nil, nil); ok {
		t.Fatal("stale recording served a hit")
	}
}

func TestGroupCacheConcurrentAcquireRelease(t *testing.T) {
	tbl, sch := gcFixture(t)
	c := NewGroupCache(1<<20, newArena(t))
	geoms := []*geometry.Geometry{gcGeom(t, sch, 0), gcGeom(t, sch, 1), gcGeom(t, sch, 2)}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := geoms[(w+i)%len(geoms)]
				if e, ok := c.Acquire(tbl, g, nil, nil); ok {
					_ = e.Chunks()[0].Data
					c.Release(e)
				} else {
					rec := c.NewRecorder(tbl, g, nil, nil, 4, 64)
					rec.Add(make([]byte, 256), 64, 64)
					rec.Install()
				}
				if i%50 == 25 {
					c.Invalidate(tbl)
				}
				c.Stats()
				c.Peek(tbl, g, nil, nil)
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Installs == 0 || st.Invalidations == 0 {
		t.Fatalf("stress never exercised the cache: %+v", st)
	}
}
