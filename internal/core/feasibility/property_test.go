package feasibility

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core/conflict"
)

// randRegion builds a region over a random conflict graph.
func randRegion(seed int64) (*Region, *conflict.Graph, []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(5)
	g := conflict.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.4 {
				g.AddEdge(i, j)
			}
		}
	}
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 0.5 + 2*rng.Float64()
	}
	return Build(caps, g), g, caps
}

// Downward closure: shrinking a point of the region (a convex
// combination of its extreme points) keeps it feasible.
func TestPropertyRegionDownwardClosed(t *testing.T) {
	f := func(seed int64, shrink uint8) bool {
		r, _, caps := randRegion(seed)
		rng := rand.New(rand.NewSource(seed + 1))
		alpha := make([]float64, r.K())
		sum := 0.0
		for j := range alpha {
			alpha[j] = rng.Float64()
			sum += alpha[j]
		}
		factor := 0.1 + 0.8*float64(shrink)/255
		y := make([]float64, len(caps))
		for j, p := range r.Points {
			for i := range y {
				y[i] += alpha[j] / sum * p[i] * factor * rng.Float64()
			}
		}
		return r.Contains(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Every extreme point of the region is itself feasible and lies on its
// boundary, and every link's full-capacity singleton is dominated by
// some extreme point.
func TestPropertyExtremePointsFeasibleAndCoverLinks(t *testing.T) {
	f := func(seed int64) bool {
		r, _, caps := randRegion(seed)
		for _, p := range r.Points {
			if !r.Contains(p) {
				return false
			}
			// No point of the region exceeds a link's capacity, so
			// growing a used link of an extreme point leaves it.
			for l := range p {
				if p[l] > 0 {
					grown := append([]float64(nil), p...)
					grown[l] *= 1.01
					if r.Contains(grown) {
						return false
					}
				}
			}
		}
		for l := range caps {
			covered := false
			for _, p := range r.Points {
				if p[l] >= caps[l]-1e-12 {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Conflicting links can never simultaneously exceed the time-sharing
// bound inside the modelled region.
func TestPropertyConflictingPairsTimeShare(t *testing.T) {
	f := func(seed int64) bool {
		r, g, caps := randRegion(seed)
		rng := rand.New(rand.NewSource(seed + 2))
		y := make([]float64, len(caps))
		for i := range y {
			y[i] = rng.Float64() * caps[i]
		}
		if !r.Contains(y) {
			return true
		}
		for i := 0; i < len(caps); i++ {
			for j := i + 1; j < len(caps); j++ {
				if g.Interferes(i, j) && y[i]/caps[i]+y[j]/caps[j] > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// A denser conflict graph never enlarges the region.
func TestPropertyMoreConflictsShrinkRegion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		sparse := conflict.NewGraph(n)
		dense := conflict.NewGraph(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				r := rng.Float64()
				if r < 0.3 {
					sparse.AddEdge(i, j)
					dense.AddEdge(i, j)
				} else if r < 0.6 {
					dense.AddEdge(i, j)
				}
			}
		}
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = 1
		}
		rs := Build(caps, sparse)
		rd := Build(caps, dense)
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.Float64()
		}
		// Anything feasible under dense conflicts is feasible under
		// sparse ones.
		if rd.Contains(y) && !rs.Contains(y) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
