package cache_test

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/topology"
	"repro/internal/topology/cache"
)

// TestPoolGetBuildsOncePerKey checks that the build function runs at
// most once per key and that a hit returns the table the miss built.
func TestPoolGetBuildsOncePerKey(t *testing.T) {
	p := cache.New()
	builds := 0
	build := func() *phy.GainTable {
		builds++
		return phy.BuildGainTable(phy.DefaultConfig(),
			[]phy.Position{{X: 0}, {X: 50}}, nil)
	}
	k := cache.Key{Kind: "test", Seed: 1, N: 2}
	first := p.Get(k, build)
	second := p.Get(k, build)
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	if first != second {
		t.Fatal("hit returned a different table than the miss")
	}
	if p.Get(cache.Key{Kind: "test", Seed: 2, N: 2}, build) == first || builds != 2 {
		t.Fatalf("second key: builds=%d, want a second table", builds)
	}
}

// TestMesh18CacheHitIdenticalToColdBuild is the determinism contract: a
// mesh built from a pooled (cached) gain table reports exactly the same
// pairwise gains as the cold build that populated the pool.
func TestMesh18CacheHitIdenticalToColdBuild(t *testing.T) {
	// No other test in this binary uses this layout seed, so the first
	// build misses the shared pool and the second hits it.
	const layoutSeed = 9157
	cold := topology.Mesh18Seeded(layoutSeed, 100)
	warm := topology.Mesh18Seeded(layoutSeed, 200)

	n := len(cold.Nodes)
	if len(warm.Nodes) != n {
		t.Fatalf("node counts differ: %d vs %d", n, len(warm.Nodes))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if c, w := cold.Medium.GainMW(i, j), warm.Medium.GainMW(i, j); c != w {
				t.Fatalf("gain(%d,%d) differs: cold %v, cached %v", i, j, c, w)
			}
		}
	}

	// A different layout seed must not alias the cached table.
	other := topology.Mesh18Seeded(layoutSeed+1, 100)
	same := true
	for i := 0; i < n && same; i++ {
		for j := 0; j < n; j++ {
			if i != j && other.Medium.GainMW(i, j) != cold.Medium.GainMW(i, j) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different layout seeds produced identical gain tables")
	}
}

// TestSharedTableIsolation: two simulations sharing one cached table run
// independently (the table is read-only; sim state never crosses).
func TestSharedTableIsolation(t *testing.T) {
	a := topology.GatewayScenario(1, phy.Rate1)
	b := topology.GatewayScenario(2, phy.Rate1)
	if a.Medium.GainMW(0, 1) != b.Medium.GainMW(0, 1) {
		t.Fatal("shared table reports different gains")
	}
}
