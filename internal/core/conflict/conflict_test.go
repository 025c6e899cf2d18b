package conflict

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func setsEqual(got [][]int, want [][]int) bool {
	norm := func(ss [][]int) []string {
		out := make([]string, len(ss))
		for i, s := range ss {
			sorted := append([]int(nil), s...)
			sort.Ints(sorted)
			b := make([]byte, 0, 16)
			for _, v := range sorted {
				b = append(b, byte('0'+v), ',')
			}
			out[i] = string(b)
		}
		sort.Strings(out)
		return out
	}
	g, w := norm(got), norm(want)
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

func TestMISEdgelessGraph(t *testing.T) {
	g := NewGraph(3)
	mis := g.MaximalIndependentSets()
	if !setsEqual(mis, [][]int{{0, 1, 2}}) {
		t.Fatalf("MIS of edgeless graph = %v", mis)
	}
}

func TestMISCompleteGraph(t *testing.T) {
	g := NewGraph(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
		}
	}
	mis := g.MaximalIndependentSets()
	if !setsEqual(mis, [][]int{{0}, {1}, {2}, {3}}) {
		t.Fatalf("MIS of K4 = %v", mis)
	}
}

func TestMISPathGraph(t *testing.T) {
	// Path 0-1-2-3: maximal independent sets {0,2},{0,3},{1,3}.
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	mis := g.MaximalIndependentSets()
	if !setsEqual(mis, [][]int{{0, 2}, {0, 3}, {1, 3}}) {
		t.Fatalf("MIS of P4 = %v", mis)
	}
}

func TestMISCycle5(t *testing.T) {
	// C5 has exactly 5 maximal independent sets, each of size 2.
	g := NewGraph(5)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
	}
	mis := g.MaximalIndependentSets()
	if len(mis) != 5 {
		t.Fatalf("C5 has %d MIS, want 5", len(mis))
	}
	for _, s := range mis {
		if len(s) != 2 {
			t.Fatalf("C5 MIS %v has wrong size", s)
		}
	}
}

// Every enumerated set must be independent and maximal; brute force agrees
// on small random graphs.
func TestPropertyMISCorrectOnRandomGraphs(t *testing.T) {
	f := func(seed int64, nRaw, density uint8) bool {
		n := int(nRaw%9) + 1
		rng := rand.New(rand.NewSource(seed))
		p := float64(density%90+5) / 100
		g := NewGraph(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					g.AddEdge(i, j)
				}
			}
		}
		got := g.MaximalIndependentSets()
		want := bruteForceMIS(g)
		return setsEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func bruteForceMIS(g *Graph) [][]int {
	n := g.N()
	independent := func(mask int) bool {
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if mask&(1<<j) != 0 && g.Interferes(i, j) {
					return false
				}
			}
		}
		return true
	}
	var out [][]int
	for mask := 1; mask < 1<<n; mask++ {
		if !independent(mask) {
			continue
		}
		maximal := true
		for v := 0; v < n; v++ {
			if mask&(1<<v) == 0 && independent(mask|1<<v) {
				maximal = false
				break
			}
		}
		if maximal {
			var s []int
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					s = append(s, v)
				}
			}
			out = append(out, s)
		}
	}
	return out
}

func TestFromLIRThreshold(t *testing.T) {
	lir := [][]float64{
		{1, 0.99, 0.50},
		{0.99, 1, 0.94},
		{0.50, 0.94, 1},
	}
	g := FromLIR(lir, 0.95)
	if g.Interferes(0, 1) {
		t.Fatal("LIR 0.99 must not conflict at threshold 0.95")
	}
	if !g.Interferes(0, 2) || !g.Interferes(1, 2) {
		t.Fatal("low-LIR pairs must conflict")
	}
}

func TestTwoHopSharedEndpoint(t *testing.T) {
	links := []topology.Link{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 5, Dst: 6}}
	nb := map[int][]int{0: {1}, 1: {0, 2}, 2: {1}, 5: {6}, 6: {5}}
	g := TwoHop(links, nb)
	if !g.Interferes(0, 1) {
		t.Fatal("links sharing node 1 must conflict")
	}
	if g.Interferes(0, 2) {
		t.Fatal("disjoint far links must not conflict")
	}
}

func TestTwoHopNeighbourOfNeighbour(t *testing.T) {
	// Chain 0-1-2-3-4: links (0,1) and (2,3). Node 2 is a neighbour of
	// link (0,1)'s endpoint 1, so they conflict under the two-hop rule.
	links := []topology.Link{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}}
	nb := map[int][]int{0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
	g := TwoHop(links, nb)
	if !g.Interferes(0, 1) {
		t.Fatal("(0,1) vs (2,3): two-hop rule must conflict")
	}
	if !g.Interferes(1, 2) {
		t.Fatal("adjacent links must conflict")
	}
	if g.Interferes(0, 2) {
		t.Fatal("(0,1) vs (3,4) are three hops apart: no conflict")
	}
}

func TestOneHopIsSubsetOfTwoHop(t *testing.T) {
	links := []topology.Link{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}}
	nb := map[int][]int{0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
	one := OneHop(links)
	two := TwoHop(links, nb)
	for i := 0; i < len(links); i++ {
		for j := 0; j < len(links); j++ {
			if one.Interferes(i, j) && !two.Interferes(i, j) {
				t.Fatalf("one-hop conflict (%d,%d) missing from two-hop", i, j)
			}
		}
	}
	if one.Interferes(0, 2) || !two.Interferes(0, 2) {
		t.Fatal("links two hops apart on a chain must conflict under two-hop only")
	}
}

func TestComplementInvolution(t *testing.T) {
	g := NewGraph(6)
	g.AddEdge(0, 3)
	g.AddEdge(1, 4)
	g.AddEdge(2, 5)
	cc := g.Complement().Complement()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if g.Interferes(i, j) != cc.Interferes(i, j) {
				t.Fatal("complement of complement differs")
			}
		}
	}
}

func TestLargeSparseGraphFast(t *testing.T) {
	// 60 links in 12 cliques of 5: MIS count is 5^12? No — cliques force
	// one vertex each: 5^12 would explode; use a chain of cliques fused
	// to keep it bounded. Here: independent cliques -> product. Keep it
	// small: 6 cliques of 4 -> 4^6 = 4096 sets, still fast.
	g := NewGraph(24)
	for c := 0; c < 6; c++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				g.AddEdge(4*c+i, 4*c+j)
			}
		}
	}
	mis := g.MaximalIndependentSets()
	if len(mis) != 4096 {
		t.Fatalf("got %d MIS, want 4^6", len(mis))
	}
}
