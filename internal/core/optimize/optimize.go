// Package optimize implements the paper's convex optimization framework
// (§6.1): maximize an alpha-fair utility of end-to-end flow rates subject
// to the routing matrix mapping flow rates onto links and the link rates
// lying inside the feasibility polytope:
//
//	maximize   sum_s U(y_s)
//	subject to R y <= C alpha,  1'alpha = 1,  alpha >= 0,
//
// where the columns of C are the extreme points. alpha = 0 (maximum
// aggregate throughput) and the max-min objective reduce to LPs; general
// alpha (including proportional fairness, alpha = 1) is solved by
// Frank–Wolfe with the LP as linear oracle — every iterate stays feasible
// and the method needs only the polytope's linear description, exactly the
// property the paper's model is designed to provide.
package optimize

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core/feasibility"
	"repro/internal/lp"
)

// Objective selects the utility U in the alpha-fair family:
// U(y) = y^(1-alpha)/(1-alpha) for alpha != 1, log y for alpha = 1.
type Objective struct {
	// Alpha is the fairness parameter: 0 maximizes aggregate
	// throughput, 1 is proportional fairness, larger values approach
	// max-min. math.Inf(1) selects the exact max-min LP.
	Alpha float64
}

// MaxThroughput, ProportionalFair and MaxMin are the objectives evaluated
// in the paper (TCP-Max and TCP-Prop in §6.3, max-min in §4.5 footnote).
var (
	MaxThroughput    = Objective{Alpha: 0}
	ProportionalFair = Objective{Alpha: 1}
	MaxMin           = Objective{Alpha: math.Inf(1)}
)

// Problem couples a feasibility region with a routing matrix.
type Problem struct {
	Region *feasibility.Region
	// Routes[s] lists the link indices used by flow s.
	Routes [][]int
}

// NumFlows returns S.
func (p *Problem) NumFlows() int { return len(p.Routes) }

// routingRow returns R_{l,·} as a dense row over flows.
func (p *Problem) routingRow(l int) []float64 {
	row := make([]float64, len(p.Routes))
	for s, links := range p.Routes {
		for _, ll := range links {
			if ll == l {
				row[s] = 1
			}
		}
	}
	return row
}

// Options tunes the Frank–Wolfe solver.
type Options struct {
	// Iterations bounds the Frank–Wolfe steps (default 400).
	Iterations int
	// FloorFraction sets the gradient clamp: rates below this fraction
	// of the smallest capacity are treated as the floor when computing
	// gradients of log-like utilities (default 1e-4).
	FloorFraction float64
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 400
	}
	if o.FloorFraction == 0 {
		o.FloorFraction = 1e-4
	}
	return o
}

// ErrNoFlows is returned for a problem with no flows.
var ErrNoFlows = errors.New("optimize: no flows")

// Solve returns the optimized end-to-end flow output rates y.
//
// The problem is solved in capacity-normalized units (rates divided by the
// largest extreme-point coordinate): every alpha-fair utility's argmax is
// invariant under that scaling, and it keeps the Frank–Wolfe gradients
// y^-alpha within floating-point range for bits-per-second rate scales.
func Solve(p *Problem, obj Objective, opts Options) ([]float64, error) {
	if p.NumFlows() == 0 {
		return nil, ErrNoFlows
	}
	opts = opts.withDefaults()
	if obj.Alpha < 0 {
		return nil, fmt.Errorf("optimize: negative alpha %v", obj.Alpha)
	}
	scale := maxCoord(p.Region)
	if scale <= 0 {
		return make([]float64, p.NumFlows()), nil
	}
	np := &Problem{Region: scaleRegion(p.Region, 1/scale), Routes: p.Routes}
	var y []float64
	var err error
	switch {
	case math.IsInf(obj.Alpha, 1):
		y, err = solveMaxMin(np)
	case obj.Alpha == 0:
		y, err = solveOracle(np, ones(np.NumFlows()))
	default:
		y, err = solveFrankWolfe(np, obj, opts)
	}
	if err != nil {
		return nil, err
	}
	for i := range y {
		y[i] *= scale
	}
	return y, nil
}

func maxCoord(r *feasibility.Region) float64 {
	m := 0.0
	for _, p := range r.Points {
		for _, v := range p {
			if v > m {
				m = v
			}
		}
	}
	return m
}

func scaleRegion(r *feasibility.Region, k float64) *feasibility.Region {
	pts := make([][]float64, len(r.Points))
	for i, p := range r.Points {
		pts[i] = make([]float64, len(p))
		for j, v := range p {
			pts[i][j] = v * k
		}
	}
	caps := make([]float64, len(r.Capacities))
	for i, v := range r.Capacities {
		caps[i] = v * k
	}
	return &feasibility.Region{Points: pts, Capacities: caps}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// buildLP constructs the polytope LP with variables [y (S), alpha (K)] and
// objective g over y.
func buildLP(p *Problem, g []float64) *lp.Problem {
	s := p.NumFlows()
	k := p.Region.K()
	l := p.Region.L()
	obj := make([]float64, s+k)
	copy(obj, g)
	prob := lp.NewProblem(s+k, obj)
	for li := 0; li < l; li++ {
		row := make([]float64, s+k)
		copy(row, p.routingRow(li))
		for j := 0; j < k; j++ {
			row[s+j] = -p.Region.Points[j][li]
		}
		prob.AddConstraint(row, lp.LE, 0)
	}
	simplexRow := make([]float64, s+k)
	for j := 0; j < k; j++ {
		simplexRow[s+j] = 1
	}
	prob.AddConstraint(simplexRow, lp.EQ, 1)
	return prob
}

// solveOracle maximizes the linear objective g'y over the polytope.
func solveOracle(p *Problem, g []float64) ([]float64, error) {
	x, _, err := lp.Solve(buildLP(p, g))
	if err != nil {
		return nil, err
	}
	return x[:p.NumFlows()], nil
}

// solveMaxMin maximizes the minimum flow rate (single-level max-min).
func solveMaxMin(p *Problem) ([]float64, error) {
	s := p.NumFlows()
	k := p.Region.K()
	l := p.Region.L()
	// Variables: y (S), alpha (K), t.
	obj := make([]float64, s+k+1)
	obj[s+k] = 1
	prob := lp.NewProblem(s+k+1, obj)
	for li := 0; li < l; li++ {
		row := make([]float64, s+k+1)
		copy(row, p.routingRow(li))
		for j := 0; j < k; j++ {
			row[s+j] = -p.Region.Points[j][li]
		}
		prob.AddConstraint(row, lp.LE, 0)
	}
	simplexRow := make([]float64, s+k+1)
	for j := 0; j < k; j++ {
		simplexRow[s+j] = 1
	}
	prob.AddConstraint(simplexRow, lp.EQ, 1)
	for si := 0; si < s; si++ {
		row := make([]float64, s+k+1)
		row[si] = 1
		row[s+k] = -1
		prob.AddConstraint(row, lp.GE, 0)
	}
	x, _, err := lp.Solve(prob)
	if err != nil {
		return nil, err
	}
	return x[:s], nil
}

// solveFrankWolfe runs the conditional-gradient method from the max-min
// point (strictly positive when the problem allows it).
func solveFrankWolfe(p *Problem, obj Objective, opts Options) ([]float64, error) {
	y, err := solveMaxMin(p)
	if err != nil {
		return nil, err
	}
	floor := opts.FloorFraction * minPositive(p.Region.Capacities)
	s := p.NumFlows()
	g := make([]float64, s)
	for it := 0; it < opts.Iterations; it++ {
		gmax := 0.0
		for i := 0; i < s; i++ {
			v := y[i]
			if v < floor {
				v = floor
			}
			g[i] = math.Pow(v, -obj.Alpha)
			if g[i] > gmax {
				gmax = g[i]
			}
		}
		// Normalize so the LP oracle's reduced costs stay well above
		// its epsilon regardless of alpha.
		if gmax > 0 {
			for i := range g {
				g[i] /= gmax
			}
		}
		vertex, err := solveOracle(p, g)
		if err != nil {
			return nil, err
		}
		gamma := 2 / float64(it+2)
		for i := 0; i < s; i++ {
			y[i] += gamma * (vertex[i] - y[i])
		}
	}
	return y, nil
}

func minPositive(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		if x > 0 && x < m {
			m = x
		}
	}
	if math.IsInf(m, 1) {
		return 1
	}
	return m
}

// TCPAckScale is the §6.2 factor that reserves air time for TCP ACKs in
// the reverse direction: (1 - (A+H)/(A+H+D)) with A and H the IP/TCP
// header and TCP ACK sizes and D the TCP payload size.
func TCPAckScale(hdrBytes, ackBytes, payloadBytes int) float64 {
	ah := float64(hdrBytes + ackBytes)
	return 1 - ah/(ah+float64(payloadBytes))
}
