// Package lp is a dense two-phase primal simplex solver for the small
// linear programs that arise in the paper's optimization framework: the
// feasibility-polytope membership tests, the maximum-aggregate-throughput
// objective, the max-min objective, and the linear oracle inside the
// Frank–Wolfe iterations for general alpha-fair utilities.
//
// Problems have at most a few hundred variables and constraints, so a
// dense tableau with Bland's anti-cycling rule is simple and fast enough.
// Callers that solve the same problem shape repeatedly (the feasibility
// region answers thousands of membership queries against one constraint
// matrix) mutate coefficients in place with SetRHS and reuse a
// Workspace so no tableau is reallocated per query.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // <=
	GE           // >=
	EQ           // ==
)

// Problem is a linear program over n nonnegative variables:
//
//	maximize  c · x
//	subject to A_i · x (op_i) b_i,  x >= 0.
type Problem struct {
	n    int
	c    []float64
	rows [][]float64
	ops  []Op
	rhs  []float64
}

// NewProblem creates a problem with n variables and the given objective
// coefficients (padded with zeros if shorter than n).
func NewProblem(n int, objective []float64) *Problem {
	c := make([]float64, n)
	copy(c, objective)
	return &Problem{n: n, c: c}
}

// AddConstraint appends coef · x (op) rhs. Missing coefficients are zero.
func (p *Problem) AddConstraint(coef []float64, op Op, rhs float64) {
	row := make([]float64, p.n)
	copy(row, coef)
	p.rows = append(p.rows, row)
	p.ops = append(p.ops, op)
	p.rhs = append(p.rhs, rhs)
}

// SetRHS replaces the right-hand side of constraint i. It lets a cached
// problem be re-aimed at a new query point without rebuilding its rows.
func (p *Problem) SetRHS(i int, rhs float64) { p.rhs[i] = rhs }

// Solver failure modes.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
)

const eps = 1e-9

// Workspace holds the tableau and scratch slices of a solve. Reusing one
// across Solve calls on same-shaped problems eliminates nearly all
// per-solve allocation. The x slice returned by SolveWS aliases the
// workspace and is only valid until the next solve on it.
type Workspace struct {
	flat    []float64   // tableau backing array
	t       [][]float64 // tableau rows into flat
	basis   []int
	artCols []bool
	obj     []float64
	cb      []float64
	x       []float64
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Solve runs two-phase simplex and returns the optimal x and objective.
func Solve(p *Problem) (x []float64, value float64, err error) {
	return p.SolveWS(&Workspace{})
}

// SolveWS is Solve with a caller-owned workspace. The returned x aliases
// ws and is overwritten by the next solve that uses ws.
func (p *Problem) SolveWS(ws *Workspace) (x []float64, value float64, err error) {
	m := len(p.rows)
	if m == 0 {
		// Unconstrained: optimum is 0 unless some c_j > 0 (unbounded).
		for _, cj := range p.c {
			if cj > eps {
				return nil, 0, ErrUnbounded
			}
		}
		return make([]float64, p.n), 0, nil
	}

	// Count slack/artificial columns, accounting for the sign flip that
	// normalizes negative right-hand sides.
	nSlack, nArt := 0, 0
	for i := range p.rows {
		op := p.ops[i]
		if p.rhs[i] < 0 {
			op = flipOp(op)
		}
		switch op {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}
	total := p.n + nSlack + nArt
	width := total + 1 // last column is rhs

	// Build the tableau directly into the workspace; rows with b < 0 are
	// negated in place of the old copy-and-flip pass.
	ws.flat = growF(ws.flat, m*width)
	if cap(ws.t) < m {
		ws.t = make([][]float64, m)
	}
	ws.t = ws.t[:m]
	t := ws.t
	for i := range t {
		t[i] = ws.flat[i*width : (i+1)*width]
	}
	ws.basis = growI(ws.basis, m)
	basis := ws.basis
	ws.artCols = growB(ws.artCols, total)
	artCols := ws.artCols

	si, ai := p.n, p.n+nSlack
	for i := range p.rows {
		row := t[i]
		b, op := p.rhs[i], p.ops[i]
		if b >= 0 {
			copy(row, p.rows[i])
		} else {
			for j, v := range p.rows[i] {
				row[j] = -v
			}
			b = -b
			op = flipOp(op)
		}
		row[total] = b
		switch op {
		case LE:
			row[si] = 1
			basis[i] = si
			si++
		case GE:
			row[si] = -1
			si++
			row[ai] = 1
			artCols[ai] = true
			basis[i] = ai
			ai++
		case EQ:
			row[ai] = 1
			artCols[ai] = true
			basis[i] = ai
			ai++
		}
	}

	ws.obj = growF(ws.obj, total)
	obj := ws.obj
	ws.cb = growF(ws.cb, m)

	if nArt > 0 {
		// Phase I: minimize sum of artificials == maximize -sum.
		for j := range obj {
			if artCols[j] {
				obj[j] = -1
			}
		}
		val, err := simplex(t, basis, obj, artCols, false, ws.cb)
		if err != nil {
			return nil, 0, err
		}
		if val < -1e-7 {
			return nil, 0, ErrInfeasible
		}
		// Pivot any artificial still in the basis out (degenerate rows).
		for i, b := range basis {
			if !artCols[b] {
				continue
			}
			pivoted := false
			for j := 0; j < total && !pivoted; j++ {
				if !artCols[j] && math.Abs(t[i][j]) > eps {
					pivot(t, basis, i, j)
					pivoted = true
				}
			}
			// If no pivot exists the row is all-zero: redundant, fine.
		}
	}

	// Phase II: original objective, artificials barred.
	clear(obj)
	copy(obj, p.c)
	value, err = simplex(t, basis, obj, artCols, true, ws.cb)
	if err != nil {
		return nil, 0, err
	}
	ws.x = growF(ws.x, p.n)
	x = ws.x
	for i, b := range basis {
		if b < p.n {
			x[b] = t[i][width-1]
		}
	}
	return x, value, nil
}

func flipOp(op Op) Op {
	switch op {
	case LE:
		return GE
	case GE:
		return LE
	}
	return op
}

// simplex maximizes obj over the current tableau in place. barArt bars
// artificial columns from entering the basis (phase II). cb is caller
// scratch of length len(t).
func simplex(t [][]float64, basis []int, obj []float64, artCols []bool, barArt bool, cb []float64) (float64, error) {
	m := len(t)
	total := len(t[0]) - 1
	// Reduced costs maintained implicitly: z_j - c_j computed per round
	// from the basis. For these problem sizes this is plenty fast.
	for iter := 0; iter < 20000; iter++ {
		// Compute simplex multipliers via c_B and current rows.
		// reduced[j] = obj[j] - sum_i cB[i] * t[i][j]
		for i, b := range basis {
			cb[i] = obj[b]
		}
		entering := -1
		for j := 0; j < total; j++ {
			if barArt && artCols[j] {
				continue
			}
			rc := obj[j]
			for i := 0; i < m; i++ {
				if cb[i] != 0 {
					rc -= cb[i] * t[i][j]
				}
			}
			// Bland's rule: first improving column.
			if rc > eps {
				entering = j
				break
			}
		}
		if entering == -1 {
			// Optimal: objective value = sum cB * rhs.
			val := 0.0
			for i := 0; i < m; i++ {
				val += cb[i] * t[i][total]
			}
			return val, nil
		}
		// Ratio test (Bland: smallest basis index tie-break).
		leave := -1
		var best float64
		for i := 0; i < m; i++ {
			if t[i][entering] > eps {
				ratio := t[i][total] / t[i][entering]
				if leave == -1 || ratio < best-eps ||
					(math.Abs(ratio-best) <= eps && basis[i] < basis[leave]) {
					leave, best = i, ratio
				}
			}
		}
		if leave == -1 {
			return 0, ErrUnbounded
		}
		pivot(t, basis, leave, entering)
	}
	return 0, fmt.Errorf("lp: iteration limit exceeded")
}

func pivot(t [][]float64, basis []int, row, col int) {
	pr := t[row]
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
	}
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		for j := range t[i] {
			t[i][j] -= f * pr[j]
		}
	}
	basis[row] = col
}
