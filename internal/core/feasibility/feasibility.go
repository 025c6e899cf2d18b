// Package feasibility implements the paper's convex feasibility-region
// model (§3): the region of simultaneously sustainable link output rates
// is approximated by the downward closure of the convex hull of a set of
// extreme points. Primary extreme points are per-link maxUDP capacities;
// secondary extreme points are maximal independent sets of a binary
// pairwise conflict graph scaled by those capacities (Eq. 4).
//
// The package also provides the two-link geometric error analysis of §4.4
// (Fig. 6), which quantifies the false-positive/false-negative area errors
// committed by the binary LIR classifier at a given threshold.
package feasibility

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core/conflict"
	"repro/internal/lp"
)

// Region is the estimated feasibility region: any output-rate vector y
// with y <= sum_k alpha_k * Points[k] for a convex combination alpha is
// deemed feasible (Eqs. 1-3, downward closed).
//
// Membership queries are answered by a small LP whose constraint
// matrix depends only on the extreme points, not on the query vector,
// so the region lazily builds the LP once and re-aims it per query
// (grid samplers issue thousands of queries against one region).
// Points and Capacities must not be mutated after the first query. The
// query cache is mutex-guarded, so a frozen region may be shared by
// concurrent experiment cells.
type Region struct {
	// Points holds the K extreme points, each of length L (links).
	Points [][]float64
	// Capacities are the primary extreme point magnitudes c_ll.
	Capacities []float64

	mu         sync.Mutex
	containsLP *lp.Problem // K vars; rhs re-aimed per query
	ws         lp.Workspace
}

// L returns the number of links.
func (r *Region) L() int { return len(r.Capacities) }

// K returns the number of extreme points.
func (r *Region) K() int { return len(r.Points) }

// Build constructs the region from per-link capacities and a conflict
// graph, following §3.2: each maximal independent set m maps to the
// extreme point C^(1) v[m] — the capacities of exactly the links in m.
// Primary extreme points are dominated by these (every link belongs to at
// least one maximal independent set), so the MIS points alone define the
// region.
func Build(capacities []float64, g *conflict.Graph) *Region {
	if g.N() != len(capacities) {
		panic(fmt.Sprintf("feasibility: %d capacities for %d-link graph", len(capacities), g.N()))
	}
	mis := g.MaximalIndependentSets()
	pts := make([][]float64, 0, len(mis))
	for _, set := range mis {
		p := make([]float64, len(capacities))
		for _, l := range set {
			p[l] = capacities[l]
		}
		pts = append(pts, p)
	}
	return &Region{Points: pts, Capacities: append([]float64(nil), capacities...)}
}

// Contains reports whether the output-rate vector y lies in the region:
// exists alpha >= 0, sum alpha = 1, with y <= sum alpha_k c[k]. Decided by
// a small feasibility LP against the region's cached constraint matrix.
func (r *Region) Contains(y []float64) bool {
	if len(y) != r.L() {
		panic("feasibility: dimension mismatch")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.containsLP == nil {
		k := r.K()
		p := lp.NewProblem(k, nil) // any feasible alpha will do
		row := make([]float64, k)
		for l := 0; l < r.L(); l++ {
			for j := 0; j < k; j++ {
				row[j] = r.Points[j][l]
			}
			p.AddConstraint(row, lp.GE, 0)
		}
		for j := range row {
			row[j] = 1
		}
		p.AddConstraint(row, lp.EQ, 1)
		r.containsLP = p
	}
	for l, v := range y {
		r.containsLP.SetRHS(l, v)
	}
	_, _, err := r.containsLP.SolveWS(&r.ws)
	return err == nil
}

// TwoLinkModel is the pairwise model of Fig. 1/Fig. 6: primary extreme
// points (c11,0) and (0,c22), optionally extended with the measured
// simultaneous point (c31,c32) (the three-point model of §4.3.2).
type TwoLinkModel struct {
	C11, C22 float64
	// ThreePoint adds (C31,C32) as a secondary extreme point.
	ThreePoint bool
	C31, C32   float64
	// Independent selects the rectangular independent region instead of
	// the time-sharing region (the binary classifier's "no conflict").
	Independent bool
}

// Feasible reports whether (y1, y2) is inside the modelled region.
func (m TwoLinkModel) Feasible(y1, y2 float64) bool {
	if y1 < 0 || y2 < 0 || m.C11 <= 0 || m.C22 <= 0 {
		return false
	}
	if y1 > m.C11 || y2 > m.C22 {
		return false
	}
	if m.Independent {
		return true
	}
	n1, n2 := y1/m.C11, y2/m.C22
	if m.ThreePoint && m.C31+m.C32 > 0 {
		// Region is the downward closure of the hull of (C11,0),
		// (0,C22), (C31,C32): feasible if below either hull edge.
		if pointBelowSegment(y1, y2, m.C11, 0, m.C31, m.C32) ||
			pointBelowSegment(y1, y2, m.C31, m.C32, 0, m.C22) {
			return true
		}
	}
	return n1+n2 <= 1+1e-12
}

// pointBelowSegment reports whether (x,y) is dominated by some point on
// the segment (x1,y1)-(x2,y2): there is a segment point (px,py) with
// px >= x and py >= y.
func pointBelowSegment(x, y, x1, y1, x2, y2 float64) bool {
	if x1 > x2 {
		x1, y1, x2, y2 = x2, y2, x1, y1
	}
	if x > x2 {
		return false
	}
	lo := math.Max(x, x1)
	t := 0.0
	if x2 > x1 {
		t = (lo - x1) / (x2 - x1)
	}
	yLo := y1 + t*(y2-y1)
	return y <= math.Max(yLo, y2)+1e-12
}

// PairErrors is the outcome of the Fig. 6 area computation for one pair.
type PairErrors struct {
	FN float64 // missed fraction of the true region (underestimate)
	FP float64 // claimed-but-infeasible fraction relative to true region
}

// LIRAreaErrors computes the FN and FP errors of the binary LIR model with
// the given threshold, taking the three-point region through (c31,c32) as
// the true feasibility region (§4.4):
//
//   - classified interfering (LIR < threshold): region = time sharing A1,
//     FN = A2/(A1+A2), FP = 0;
//   - classified independent: region = rectangle, FP = (c11·c22 −
//     (A1+A2))/(A1+A2), FN = 0.
func LIRAreaErrors(c11, c22, c31, c32, threshold float64) PairErrors {
	lir := (c31 + c32) / (c11 + c22)
	a1 := c11 * c22 / 2
	a12 := threePointArea(c11, c22, c31, c32)
	if a12 < a1 {
		a12 = a1
	}
	if lir < threshold {
		return PairErrors{FN: (a12 - a1) / a12}
	}
	return PairErrors{FP: (c11*c22 - a12) / a12}
}

// threePointArea is the area of the downward-closed hull region of
// (c11,0),(0,c22),(c31,c32) — the polygon (0,0),(c11,0),(c31,c32),(0,c22)
// when the LIR point lies above the time-sharing line.
func threePointArea(c11, c22, c31, c32 float64) float64 {
	if c31/c11+c32/c22 <= 1 {
		return c11 * c22 / 2
	}
	// Shoelace over (0,0),(c11,0),(c31,c32),(0,c22).
	xs := []float64{0, c11, c31, 0}
	ys := []float64{0, 0, c32, c22}
	area := 0.0
	for i := 0; i < len(xs); i++ {
		j := (i + 1) % len(xs)
		area += xs[i]*ys[j] - xs[j]*ys[i]
	}
	return math.Abs(area) / 2
}

// ExpectedLIRErrors averages the Fig. 6 error areas over an observed LIR
// distribution, using the proportional realization c3 = LIR·(c11,c22)
// with unit capacities — the paper notes that with c11 = c22 every
// realization of a given LIR yields the same areas.
func ExpectedLIRErrors(lirs []float64, threshold float64) PairErrors {
	if len(lirs) == 0 {
		return PairErrors{}
	}
	var sum PairErrors
	for _, lir := range lirs {
		e := LIRAreaErrors(1, 1, lir, lir, threshold)
		sum.FN += e.FN
		sum.FP += e.FP
	}
	return PairErrors{FN: sum.FN / float64(len(lirs)), FP: sum.FP / float64(len(lirs))}
}
