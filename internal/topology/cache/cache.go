// Package cache pools frozen gain tables across simulation cells.
//
// Every cell of a parallel experiment builds a private simulator and
// medium, but cells sweeping iterations, regimes or probe windows over
// the same mesh layout all recompute an identical O(n²) gain matrix:
// the table is a pure function of the layout inputs (topology kind,
// layout seed, node count, geometry parameter) under the default radio
// config. The pool keys tables on exactly those inputs, so the first
// cell to need a layout builds its table and every later cell — on any
// worker, in any order — reuses the frozen copy.
//
// Determinism contract: a cached table is bit-identical to a cold build
// because the build function passed to Get must be a pure function of
// the key. Whichever cell populates an entry first, every reader sees
// the same floats a sequential cold run would compute, so experiment
// output stays bit-identical for any worker count. phy.GainTable values
// are immutable after construction, which is what makes one table safe
// to share across concurrently running media.
package cache

import (
	"sync"

	"repro/internal/phy"
)

// Key identifies a frozen mesh layout.
type Key struct {
	// Kind is the topology family ("mesh18", "chain", "twolink-IA", ...).
	Kind string
	// Seed is the layout seed for randomized families; 0 for fixed ones.
	Seed int64
	// N is the node count.
	N int
	// Param disambiguates fixed-geometry variants (e.g. chain hop metres).
	Param float64
}

// Pool is a keyed gain-table pool, safe for concurrent use by experiment
// cells.
type Pool struct {
	mu     sync.Mutex
	tables map[Key]*phy.GainTable
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{tables: make(map[Key]*phy.GainTable)}
}

// Shared is the process-wide pool the topology builders use.
var Shared = New()

// Get returns the table for k, building it with build on the first
// request. build must be a pure function of k (same key, same floats);
// it runs under the pool lock, so at most one build per key ever runs.
func (p *Pool) Get(k Key, build func() *phy.GainTable) *phy.GainTable {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t, ok := p.tables[k]; ok {
		return t
	}
	t := build()
	p.tables[k] = t
	return t
}
