package optimize

import (
	"math"
	"testing"

	"repro/internal/core/conflict"
	"repro/internal/core/feasibility"
)

// twoLinkRegion builds a region for two links with given capacities,
// conflicting when interfere is true.
func twoLinkRegion(c1, c2 float64, interfere bool) *feasibility.Region {
	g := conflict.NewGraph(2)
	if interfere {
		g.AddEdge(0, 1)
	}
	return feasibility.Build([]float64{c1, c2}, g)
}

func oneHopProblem(r *feasibility.Region) *Problem {
	routes := make([][]int, r.L())
	for i := range routes {
		routes[i] = []int{i}
	}
	return &Problem{Region: r, Routes: routes}
}

func TestMaxThroughputPicksBestLink(t *testing.T) {
	p := oneHopProblem(twoLinkRegion(1, 3, true))
	y, err := Solve(p, MaxThroughput, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[1]-3) > 1e-6 || y[0] > 1e-6 {
		t.Fatalf("y = %v, want all airtime on the faster link", y)
	}
}

func TestMaxThroughputIndependentLinks(t *testing.T) {
	p := oneHopProblem(twoLinkRegion(1, 3, false))
	y, err := Solve(p, MaxThroughput, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-6 || math.Abs(y[1]-3) > 1e-6 {
		t.Fatalf("y = %v, want both at capacity", y)
	}
}

func TestMaxMinEqualCapacities(t *testing.T) {
	p := oneHopProblem(twoLinkRegion(1, 1, true))
	y, err := Solve(p, MaxMin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-0.5) > 1e-6 || math.Abs(y[1]-0.5) > 1e-6 {
		t.Fatalf("y = %v, want (0.5, 0.5)", y)
	}
}

func TestMaxMinUnequalCapacities(t *testing.T) {
	// Time sharing between c1=1 and c2=3: y1/1 + y2/3 = 1 with y1=y2
	// gives y = 3/4.
	p := oneHopProblem(twoLinkRegion(1, 3, true))
	y, err := Solve(p, MaxMin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-0.75) > 1e-6 || math.Abs(y[1]-0.75) > 1e-6 {
		t.Fatalf("y = %v, want (0.75, 0.75)", y)
	}
}

// Proportional fairness on a shared channel with equal capacities is the
// equal split; with unequal capacities it equalizes airtime shares:
// maximizing log y1 + log y2 over y1/c1 + y2/c2 <= 1 gives y_i = c_i/2.
func TestProportionalFairAirtimeSplit(t *testing.T) {
	p := oneHopProblem(twoLinkRegion(1, 3, true))
	y, err := Solve(p, ProportionalFair, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-0.5) > 0.02 || math.Abs(y[1]-1.5) > 0.05 {
		t.Fatalf("y = %v, want ~(0.5, 1.5)", y)
	}
}

func TestProportionalFairMatchesKKTThreeLinks(t *testing.T) {
	// Three mutually interfering links, capacities c: prop-fair gives
	// y_i = c_i / 3.
	g := conflict.NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	r := feasibility.Build([]float64{1, 2, 4}, g)
	p := oneHopProblem(r)
	y, err := Solve(p, ProportionalFair, Options{Iterations: 800})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 3, 2.0 / 3, 4.0 / 3}
	for i := range y {
		if math.Abs(y[i]-want[i]) > 0.03*want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestMultiHopFlowConsumesBothLinks(t *testing.T) {
	// Two conflicting links; flow 0 crosses both (2-hop), flow 1 uses
	// link 1 only. Max throughput should starve the 2-hop flow (it costs
	// double airtime) — the Fig. 13 phenomenon.
	r := twoLinkRegion(1, 1, true)
	p := &Problem{Region: r, Routes: [][]int{{0, 1}, {1}}}
	y, err := Solve(p, MaxThroughput, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] > 1e-6 || math.Abs(y[1]-1) > 1e-6 {
		t.Fatalf("y = %v, want (0, 1)", y)
	}
	// Proportional fairness revives the 2-hop flow: maximize
	// log y0 + log y1 s.t. 2*y0 + y1 <= 1 -> y0 = 1/4, y1 = 1/2.
	y, err = Solve(p, ProportionalFair, Options{Iterations: 800})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-0.25) > 0.02 || math.Abs(y[1]-0.5) > 0.03 {
		t.Fatalf("prop-fair y = %v, want (0.25, 0.5)", y)
	}
}

func TestAlphaSweepMonotoneFairness(t *testing.T) {
	// As alpha grows, the minimum flow rate must not decrease.
	r := twoLinkRegion(1, 4, true)
	p := &Problem{Region: r, Routes: [][]int{{0}, {1}}}
	prevMin := -1.0
	for _, alpha := range []float64{0.5, 1, 2, 4} {
		y, err := Solve(p, Objective{Alpha: alpha}, Options{Iterations: 600})
		if err != nil {
			t.Fatal(err)
		}
		m := math.Min(y[0], y[1])
		if m < prevMin-0.02 {
			t.Fatalf("alpha=%v min=%v dropped below %v", alpha, m, prevMin)
		}
		prevMin = m
	}
}

func TestSolveRespectsFeasibility(t *testing.T) {
	// Whatever the objective, R y must stay inside the region.
	g := conflict.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	r := feasibility.Build([]float64{1, 2, 1.5, 0.8}, g)
	p := &Problem{Region: r, Routes: [][]int{{0, 1}, {2}, {1, 2, 3}}}
	for _, obj := range []Objective{MaxThroughput, ProportionalFair, MaxMin, {Alpha: 2}} {
		y, err := Solve(p, obj, Options{})
		if err != nil {
			t.Fatalf("alpha=%v: %v", obj.Alpha, err)
		}
		linkLoad := make([]float64, r.L())
		for s, links := range p.Routes {
			for _, l := range links {
				linkLoad[l] += y[s]
			}
		}
		// Allow tiny numerical slack.
		scaled := make([]float64, len(linkLoad))
		for i, v := range linkLoad {
			scaled[i] = v * 0.999
		}
		if !r.Contains(scaled) {
			t.Fatalf("alpha=%v: link load %v outside region", obj.Alpha, linkLoad)
		}
	}
}

func TestTCPAckScale(t *testing.T) {
	s := TCPAckScale(52, 40, 1460)
	if s <= 0.9 || s >= 1 {
		t.Fatalf("scale = %v", s)
	}
}

func TestNoFlowsError(t *testing.T) {
	r := twoLinkRegion(1, 1, true)
	if _, err := Solve(&Problem{Region: r}, MaxThroughput, Options{}); err != ErrNoFlows {
		t.Fatalf("err = %v", err)
	}
}

func TestNegativeAlphaRejected(t *testing.T) {
	p := oneHopProblem(twoLinkRegion(1, 1, true))
	if _, err := Solve(p, Objective{Alpha: -1}, Options{}); err == nil {
		t.Fatal("negative alpha accepted")
	}
}
