package optimize_test

import (
	"fmt"

	"repro/internal/core/conflict"
	"repro/internal/core/feasibility"
	"repro/internal/core/optimize"
)

// ExampleSolve runs the paper's three objectives on a relay scenario: a
// 2-hop flow (consuming both links) and a 1-hop flow sharing the second
// link — the structure behind the Fig. 13 starvation results.
func ExampleSolve() {
	g := conflict.NewGraph(2)
	g.AddEdge(0, 1)
	region := feasibility.Build([]float64{1, 1}, g)
	prob := &optimize.Problem{
		Region: region,
		Routes: [][]int{{0, 1}, {1}}, // flow 0 is 2-hop, flow 1 is 1-hop
	}

	yMax, _ := optimize.Solve(prob, optimize.MaxThroughput, optimize.Options{})
	yProp, _ := optimize.Solve(prob, optimize.ProportionalFair, optimize.Options{Iterations: 2000})
	fmt.Printf("max-throughput: 2-hop %.2f, 1-hop %.2f\n", yMax[0], yMax[1])
	fmt.Printf("prop-fair:      2-hop %.2f, 1-hop %.2f\n", yProp[0], yProp[1])
	// Output:
	// max-throughput: 2-hop 0.00, 1-hop 1.00
	// prop-fair:      2-hop 0.25, 1-hop 0.50
}
