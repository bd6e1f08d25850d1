package rfabric

import (
	"errors"

	"rfabric/internal/sql"
)

// Plan caching. §III-B observes that with the fabric there are no buffered
// data layouts to manage, so the evaluation engine "can buffer more code
// fragments and reuse previously compiled code fragments more aggressively".
// Compilation here is parse+lower; a Prepared statement is the reusable
// fragment — the pipeline query plus its ORDER BY / LIMIT sinks — and the DB
// keeps a cache keyed by query text so repeated ad-hoc queries reuse their
// fragments automatically.

// CompileCycles is the modeled cost of compiling one query fragment
// (parse, resolve, lower) — charged once per distinct query text.
const CompileCycles = 25_000

// Prepared is a compiled query fragment bound to a table.
type Prepared struct {
	db   *DB
	stmt *statement
	// fp is the statement's normalized fingerprint — the key feedback
	// eviction matches against. epoch is the catalog epoch the fragment
	// compiled under; a moved epoch means the catalog changed (DDL or a
	// write) and the cached fragment is stale.
	fp    uint64
	epoch uint64
}

// PlanCacheStats reports fragment-cache behaviour.
type PlanCacheStats struct {
	Hits     uint64
	Misses   uint64
	Resident int
	// CompileCyclesSpent is the total modeled compilation time; a cache hit
	// avoids CompileCycles of it.
	CompileCyclesSpent uint64
	// Invalidations counts stale fragments dropped because the catalog
	// epoch moved under them (DDL or write paths).
	Invalidations uint64
	// FeedbackEvictions counts fragments evicted because a run's cycle
	// q-error exceeded the configured threshold — the replanning half of
	// the feedback loop.
	FeedbackEvictions uint64
}

type planCache struct {
	frags map[string]*Prepared
	stats PlanCacheStats
}

// Prepare compiles the statement (or fetches its cached fragment) and
// returns the reusable Prepared. Safe for concurrent use with queries and
// catalog growth: the cache is consulted under the DB lock, and the
// catalog is read under it while compiling. Join statements are rejected.
func (db *DB) Prepare(query string) (*Prepared, error) {
	db.mu.Lock()
	if db.plans == nil {
		db.plans = &planCache{frags: map[string]*Prepared{}}
	}
	epoch := db.catalogEpoch.Load()
	if p, ok := db.plans.frags[query]; ok {
		if p.epoch == epoch {
			db.plans.stats.Hits++
			db.mu.Unlock()
			return p, nil
		}
		// The catalog moved under the fragment (DDL or a write): drop it
		// and recompile against the current schema and contents.
		delete(db.plans.frags, query)
		db.plans.stats.Invalidations++
	}
	db.plans.stats.Misses++
	db.plans.stats.CompileCyclesSpent += CompileCycles
	db.mu.Unlock()

	// A catalog change during compilation leaves the fragment at the older
	// epoch, so the next Prepare recompiles it.
	s, err := db.compile(query, nil)
	if err != nil {
		return nil, err
	}
	if s.jp != nil {
		// A join plan is stamped per run, so it cannot be shared.
		return nil, errors.New("rfabric: Prepare does not support JOIN statements")
	}
	_, fp := sql.Fingerprint(query)
	p := &Prepared{db: db, stmt: s, fp: fp, epoch: epoch}
	db.mu.Lock()
	db.plans.frags[query] = p
	db.plans.stats.Resident = len(db.plans.frags)
	db.mu.Unlock()
	return p, nil
}

// evictPlan drops every cached fragment with the given statement
// fingerprint — feedback eviction for plans whose pricing proved wrong. The
// next Prepare recompiles, and AUTO replans it with observed-selectivity
// feedback from the statement store.
func (db *DB) evictPlan(fp uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.plans == nil {
		return
	}
	for text, p := range db.plans.frags {
		if p.fp == fp {
			delete(db.plans.frags, text)
			db.plans.stats.FeedbackEvictions++
		}
	}
	db.plans.stats.Resident = len(db.plans.frags)
}

// Run executes the fragment on the chosen path. Runs record into the DB's
// statement store under the fragment's source text, so prepared and ad-hoc
// executions of the same statement aggregate under one fingerprint.
func (p *Prepared) Run(kind EngineKind) (*Result, error) {
	res, _, err := p.db.exec(kind, p.stmt, p.db.observe(p.stmt.text, nil))
	return res, err
}

// Text returns the source text of the fragment.
func (p *Prepared) Text() string { return p.stmt.text }

// PlanCache returns the fragment-cache statistics.
func (db *DB) PlanCache() PlanCacheStats {
	if db == nil {
		return PlanCacheStats{}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.plans == nil {
		return PlanCacheStats{}
	}
	return db.plans.stats
}
