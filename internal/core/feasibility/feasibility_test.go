package feasibility

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core/conflict"
)

func TestBuildTwoInterferingLinks(t *testing.T) {
	g := conflict.NewGraph(2)
	g.AddEdge(0, 1)
	r := Build([]float64{1e6, 2e6}, g)
	if r.K() != 2 {
		t.Fatalf("K = %d, want 2 (the primaries)", r.K())
	}
	if !r.Contains([]float64{0.5e6, 1e6}) {
		t.Fatal("midpoint of time-sharing line must be feasible")
	}
	if r.Contains([]float64{0.8e6, 1.2e6}) {
		t.Fatal("point above time-sharing line must be infeasible")
	}
}

func TestBuildTwoIndependentLinks(t *testing.T) {
	g := conflict.NewGraph(2)
	r := Build([]float64{1e6, 2e6}, g)
	if r.K() != 1 {
		t.Fatalf("K = %d, want 1 (the joint MIS)", r.K())
	}
	if !r.Contains([]float64{1e6, 2e6}) {
		t.Fatal("corner of independent region must be feasible")
	}
	if r.Contains([]float64{1.01e6, 0}) {
		t.Fatal("beyond capacity must be infeasible")
	}
}

func TestBuildThreeLinkChainConflicts(t *testing.T) {
	// Links 0-1 and 1-2 conflict; 0-2 independent.
	g := conflict.NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	r := Build([]float64{1, 1, 1}, g)
	// MIS: {0,2} and {1}.
	if r.K() != 2 {
		t.Fatalf("K = %d, want 2", r.K())
	}
	if !r.Contains([]float64{1, 0, 1}) {
		t.Fatal("{0,2} simultaneously at capacity must be feasible")
	}
	if r.Contains([]float64{1, 0.5, 1}) {
		t.Fatal("cannot add link 1 on top of saturated {0,2}")
	}
	if !r.Contains([]float64{0.5, 0.5, 0.5}) {
		t.Fatal("half-half mixture must be feasible")
	}
}

func TestContainsOrigin(t *testing.T) {
	g := conflict.NewGraph(2)
	g.AddEdge(0, 1)
	r := Build([]float64{1, 1}, g)
	if !r.Contains([]float64{0, 0}) {
		t.Fatal("origin must always be feasible (downward closure)")
	}
}

func TestTwoLinkModelTimeSharing(t *testing.T) {
	m := TwoLinkModel{C11: 1, C22: 1}
	if !m.Feasible(0.5, 0.5) {
		t.Fatal("TS boundary point must be feasible")
	}
	if m.Feasible(0.6, 0.5) {
		t.Fatal("above TS must be infeasible")
	}
}

func TestTwoLinkModelIndependent(t *testing.T) {
	m := TwoLinkModel{C11: 1, C22: 2, Independent: true}
	if !m.Feasible(1, 2) {
		t.Fatal("corner must be feasible")
	}
	if m.Feasible(1.01, 2) {
		t.Fatal("beyond per-link capacity must be infeasible")
	}
}

func TestTwoLinkModelThreePoint(t *testing.T) {
	m := TwoLinkModel{C11: 1, C22: 1, ThreePoint: true, C31: 0.8, C32: 0.8}
	cases := []struct {
		y1, y2 float64
		want   bool
	}{
		{0.8, 0.8, true},   // the LIR point itself
		{0.85, 0.3, true},  // below the (1,0)-(.8,.8) edge
		{0.9, 0.5, false},  // above that edge
		{0.5, 0.87, true},  // below the (.8,.8)-(0,1) edge
		{0.5, 0.9, false},  // above it
		{0.5, 0.5, true},   // inside TS
		{1.0, 0.0, true},   // primary point
		{1.0, 0.01, false}, // beyond the hull corner
		{0.0, 1.0, true},   // other primary
	}
	for _, c := range cases {
		if got := m.Feasible(c.y1, c.y2); got != c.want {
			t.Errorf("Feasible(%v,%v) = %v, want %v", c.y1, c.y2, got, c.want)
		}
	}
}

func TestThreePointDominatesTwoPoint(t *testing.T) {
	two := TwoLinkModel{C11: 1, C22: 1}
	three := TwoLinkModel{C11: 1, C22: 1, ThreePoint: true, C31: 0.7, C32: 0.7}
	for y1 := 0.0; y1 <= 1; y1 += 0.05 {
		for y2 := 0.0; y2 <= 1; y2 += 0.05 {
			if two.Feasible(y1, y2) && !three.Feasible(y1, y2) {
				t.Fatalf("three-point model lost TS point (%v,%v)", y1, y2)
			}
		}
	}
}

func TestLIRAreaErrorsInterferingSide(t *testing.T) {
	// LIR point on the TS line: no extra area, no FN.
	e := LIRAreaErrors(1, 1, 0.25, 0.25, 0.95)
	if e.FN != 0 || e.FP != 0 {
		t.Fatalf("on-line point: %+v", e)
	}
	// LIR = 0.8 < threshold: FN = (0.8-0.5)/0.8.
	e = LIRAreaErrors(1, 1, 0.8, 0.8, 0.95)
	if math.Abs(e.FN-0.375) > 1e-9 || e.FP != 0 {
		t.Fatalf("FN = %v, want 0.375", e.FN)
	}
}

func TestLIRAreaErrorsIndependentSide(t *testing.T) {
	// LIR = 0.96 >= threshold: classified independent.
	// A1+A2 = 0.96, FP = (1-0.96)/0.96.
	e := LIRAreaErrors(1, 1, 0.96, 0.96, 0.95)
	if math.Abs(e.FP-0.04/0.96) > 1e-9 || e.FN != 0 {
		t.Fatalf("FP = %v, want %v", e.FP, 0.04/0.96)
	}
}

func TestExpectedLIRErrorsTradeoff(t *testing.T) {
	// A bimodal LIR population like Fig. 3.
	var lirs []float64
	for i := 0; i < 50; i++ {
		lirs = append(lirs, 0.45+0.005*float64(i%10)) // interfering mass
	}
	for i := 0; i < 50; i++ {
		lirs = append(lirs, 0.96+0.0004*float64(i%10)) // independent mass
	}
	low := ExpectedLIRErrors(lirs, 0.5)
	high := ExpectedLIRErrors(lirs, 0.99)
	// Raising the threshold converts FPs into FNs.
	if high.FN <= low.FN {
		t.Fatalf("FN must grow with threshold: low=%v high=%v", low.FN, high.FN)
	}
	if high.FP >= low.FP {
		t.Fatalf("FP must shrink with threshold: low=%v high=%v", low.FP, high.FP)
	}
}

func TestPropertyAreaErrorsBounded(t *testing.T) {
	f := func(a, b uint8) bool {
		lir := 0.3 + float64(a%70)/100 // [0.3, 1)
		th := 0.5 + float64(b%50)/100  // [0.5, 1)
		e := LIRAreaErrors(1, 1, lir, lir, th)
		if e.FN < 0 || e.FP < 0 {
			return false
		}
		// Only one error type is nonzero at a time.
		return e.FN == 0 || e.FP == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
