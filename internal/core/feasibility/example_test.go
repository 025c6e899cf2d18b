package feasibility_test

import (
	"fmt"

	"repro/internal/core/conflict"
	"repro/internal/core/feasibility"
)

// ExampleBuild models the paper's Fig. 1 two-link scenario: two
// interfering links produce the time-sharing region spanned by the two
// primary extreme points.
func ExampleBuild() {
	g := conflict.NewGraph(2)
	g.AddEdge(0, 1) // the links interfere

	region := feasibility.Build([]float64{1.0, 2.0}, g)
	fmt.Println("extreme points:", region.K())
	fmt.Println("half-half mixture feasible:", region.Contains([]float64{0.5, 1.0}))
	fmt.Println("above time sharing feasible:", region.Contains([]float64{0.8, 1.2}))
	// Output:
	// extreme points: 2
	// half-half mixture feasible: true
	// above time sharing feasible: false
}

// ExampleLIRAreaErrors reproduces one point of the Fig. 6 analysis: the
// FN area error of classifying an LIR-0.8 pair as interfering.
func ExampleLIRAreaErrors() {
	e := feasibility.LIRAreaErrors(1, 1, 0.8, 0.8, 0.95)
	fmt.Printf("FN=%.3f FP=%.3f\n", e.FN, e.FP)
	// Output:
	// FN=0.375 FP=0.000
}
