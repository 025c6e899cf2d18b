// Package conflict builds the binary pairwise interference structures of
// the paper: conflict graphs over unidirectional links, enumeration of
// their maximal independent sets (the basis of the secondary extreme
// points, §3.2), and the two interference classifiers — measured binary
// LIR (§4.2) and the online two-hop approximation (§5.5).
package conflict

import (
	"math/bits"

	"repro/internal/topology"
)

// Graph is a conflict graph: vertex i is link i, an edge means the two
// links interfere and must be scheduled mutually exclusively. Adjacency is
// kept as bitsets for fast set algebra during enumeration.
type Graph struct {
	n   int
	adj []bitset
}

// NewGraph returns an edgeless conflict graph over n links.
func NewGraph(n int) *Graph {
	g := &Graph{n: n, adj: make([]bitset, n)}
	for i := range g.adj {
		g.adj[i] = newBitset(n)
	}
	return g
}

// N returns the number of links (vertices).
func (g *Graph) N() int { return g.n }

// AddEdge marks links i and j as interfering.
func (g *Graph) AddEdge(i, j int) {
	if i == j {
		return
	}
	g.adj[i].set(j)
	g.adj[j].set(i)
}

// Interferes reports whether links i and j conflict.
func (g *Graph) Interferes(i, j int) bool { return g.adj[i].has(j) }

// Complement returns the graph whose edges are the non-conflicting pairs;
// cliques of the complement are independent sets of g, which is how the
// paper applies the Makino–Uno clique enumerator.
func (g *Graph) Complement() *Graph {
	c := NewGraph(g.n)
	for i := 0; i < g.n; i++ {
		for j := i + 1; j < g.n; j++ {
			if !g.Interferes(i, j) {
				c.AddEdge(i, j)
			}
		}
	}
	return c
}

// MaximalIndependentSets enumerates all maximal independent sets of g as
// sorted vertex lists. It runs Bron–Kerbosch with pivoting on the
// complement graph — the same cliques-of-the-complement device as the
// paper's Makino–Uno enumerator, chosen here for its compact
// implementation; the enumeration cost is output-sensitive in practice.
func (g *Graph) MaximalIndependentSets() [][]int {
	comp := g.Complement()
	var out [][]int
	r := newBitset(g.n)
	p := newBitset(g.n)
	x := newBitset(g.n)
	for i := 0; i < g.n; i++ {
		p.set(i)
	}
	comp.bronKerbosch(r, p, x, &out)
	return out
}

func (g *Graph) bronKerbosch(r, p, x bitset, out *[][]int) {
	if p.empty() && x.empty() {
		*out = append(*out, r.elements())
		return
	}
	// Pivot: vertex in P∪X with most neighbours in P.
	pivot, best := -1, -1
	pux := p.union(x)
	for _, u := range pux.elements() {
		if c := p.intersect(g.adj[u]).count(); c > best {
			best, pivot = c, u
		}
	}
	cand := p.minus(g.adj[pivot])
	for _, v := range cand.elements() {
		nr := r.clone()
		nr.set(v)
		g.bronKerbosch(nr, p.intersect(g.adj[v]), x.intersect(g.adj[v]), out)
		p.clear(v)
		x.set(v)
	}
}

// FromLIR classifies every link pair by a measured LIR value: pairs with
// LIR below threshold conflict. lir[i][j] must be symmetric; the paper's
// threshold is 0.95.
func FromLIR(lir [][]float64, threshold float64) *Graph {
	n := len(lir)
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if lir[i][j] < threshold {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// TwoHop builds the online conflict graph of §5.5: a link conflicts with
// every link adjacent to its endpoints and with every link adjacent to
// their one-hop neighbours. neighbours is the node adjacency relation
// (from routing-layer topology dissemination).
func TwoHop(links []topology.Link, neighbours map[int][]int) *Graph {
	g := NewGraph(len(links))
	// hood[i] = endpoints of link i plus their one-hop neighbourhoods.
	hood := make([]map[int]bool, len(links))
	for i, l := range links {
		h := map[int]bool{l.Src: true, l.Dst: true}
		for _, nb := range neighbours[l.Src] {
			h[nb] = true
		}
		for _, nb := range neighbours[l.Dst] {
			h[nb] = true
		}
		hood[i] = h
	}
	touches := func(h map[int]bool, l topology.Link) bool {
		return h[l.Src] || h[l.Dst]
	}
	for i := range links {
		for j := i + 1; j < len(links); j++ {
			if touches(hood[i], links[j]) || touches(hood[j], links[i]) {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// OneHop is the ablation variant: links conflict only when they share an
// endpoint or touch each other's endpoints directly.
func OneHop(links []topology.Link) *Graph {
	g := NewGraph(len(links))
	for i := range links {
		for j := i + 1; j < len(links); j++ {
			a, b := links[i], links[j]
			if a.Src == b.Src || a.Src == b.Dst || a.Dst == b.Src || a.Dst == b.Dst {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// bitset is a fixed-capacity bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b bitset) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) union(o bitset) bitset {
	c := b.clone()
	for i := range c {
		c[i] |= o[i]
	}
	return c
}

func (b bitset) intersect(o bitset) bitset {
	c := b.clone()
	for i := range c {
		c[i] &= o[i]
	}
	return c
}

func (b bitset) minus(o bitset) bitset {
	c := b.clone()
	for i := range c {
		c[i] &^= o[i]
	}
	return c
}

func (b bitset) elements() []int {
	var out []int
	for wi, w := range b {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			out = append(out, wi*64+i)
			w &= w - 1
		}
	}
	return out
}
