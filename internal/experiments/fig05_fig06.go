package experiments

import (
	"fmt"
	"io"

	"repro/internal/core/feasibility"
	"repro/internal/experiments/exp"
	"repro/internal/measure"
	"repro/internal/phy"
	"repro/internal/scenario/sink"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Fig5Point is one sampled output-rate pair with its measured and
// modelled feasibility.
type Fig5Point struct {
	Y1, Y2     float64
	Measured   bool
	TwoPoint   bool
	ThreePoint bool
}

// Fig5Result reproduces the Fig. 5 IA example: the region fraction missed
// by the two-point model and recovered by the three-point model.
type Fig5Result struct {
	C11, C22, C31, C32 float64
	Points             []Fig5Point
	// MissedFraction is the share of measured-feasible points outside
	// the time-sharing region (the paper's worst case is ~40%).
	MissedFraction float64
	// RecoveredFraction is the share of those missed points the
	// three-point model recovers.
	RecoveredFraction float64
}

// fig5Cell is one grid-point injection cell. The extreme points are
// measured once in Cells and ride along so both the cell body and the
// reduction are pure functions of their inputs.
type fig5Cell struct {
	seed     int64
	sc       Scale
	y1, y2   float64
	in1, in2 float64    // loss-adjusted injection rates
	c        [4]float64 // C11, C22, C31, C32
}

// fig5Exp samples the feasibility region of an IA pair at 1 Mb/s. The
// extreme points are measured once (in Cells); every grid point is then
// an independent injection cell on its own copy of the two-link network
// (rebuilt from the same seed).
type fig5Exp struct{}

func (fig5Exp) Name() string { return "fig5" }
func (fig5Exp) Describe() string {
	return "three-point feasibility check on CS/IA/NF rate regions"
}

func (fig5Exp) Cells(seed int64, sc Scale) []exp.Cell {
	nw := topology.TwoLink(seed, topology.IA, phy.Rate1, phy.Rate1)
	solo1 := measure.MaxUDP(nw.Network, nw.Link1, traffic.DefaultPayload, sc.PhaseDur)
	solo2 := measure.MaxUDP(nw.Network, nw.Link2, traffic.DefaultPayload, sc.PhaseDur)
	both := measure.Simultaneous(nw.Network, []topology.Link{nw.Link1, nw.Link2},
		traffic.DefaultPayload, sc.PhaseDur)
	c := [4]float64{solo1.ThroughputBps, solo2.ThroughputBps, both[0].ThroughputBps, both[1].ThroughputBps}
	n := sc.GridN
	var cells []exp.Cell
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			y1 := c[0] * float64(i) / float64(n)
			y2 := c[1] * float64(j) / float64(n)
			cells = append(cells, exp.Cell{Seed: seed, Data: fig5Cell{
				seed: seed, sc: sc,
				y1: y1, y2: y2,
				in1: y1 / (1 - solo1.LossRate), in2: y2 / (1 - solo2.LossRate),
				c: c,
			}})
		}
	}
	return cells
}

func (fig5Exp) RunCell(cell exp.Cell) sink.Record {
	d := cell.Data.(fig5Cell)
	two := feasibility.TwoLinkModel{C11: d.c[0], C22: d.c[1]}
	three := feasibility.TwoLinkModel{
		C11: d.c[0], C22: d.c[1],
		ThreePoint: true, C31: d.c[2], C32: d.c[3],
	}
	cnw := topology.TwoLink(d.seed, topology.IA, phy.Rate1, phy.Rate1)
	flows := []measure.Flow{
		{Src: cnw.Link1.Src, Dst: cnw.Link1.Dst},
		{Src: cnw.Link2.Src, Dst: cnw.Link2.Dst},
	}
	r := measure.InjectRates(cnw.Network, flows, []float64{d.in1, d.in2},
		traffic.DefaultPayload, d.sc.TrafficDur)
	return sink.Record{Fields: []sink.Field{
		sink.F("y1", d.y1),
		sink.F("y2", d.y2),
		sink.F("c11", d.c[0]),
		sink.F("c22", d.c[1]),
		sink.F("c31", d.c[2]),
		sink.F("c32", d.c[3]),
		sink.F("measured", r[0].OutputBps >= 0.98*d.y1 && r[1].OutputBps >= 0.98*d.y2),
		sink.F("twopoint", two.Feasible(d.y1, d.y2)),
		sink.F("threepoint", three.Feasible(d.y1, d.y2)),
	}}
}

func (fig5Exp) Reduce(recs <-chan sink.Record) exp.Result {
	var res Fig5Result
	var missed, recovered, feasible int
	for rec := range recs {
		if len(res.Points) == 0 {
			res.C11, res.C22 = rec.Float("c11"), rec.Float("c22")
			res.C31, res.C32 = rec.Float("c31"), rec.Float("c32")
		}
		pt := Fig5Point{
			Y1: rec.Float("y1"), Y2: rec.Float("y2"),
			Measured:   rec.Bool("measured"),
			TwoPoint:   rec.Bool("twopoint"),
			ThreePoint: rec.Bool("threepoint"),
		}
		res.Points = append(res.Points, pt)
		if pt.Measured {
			feasible++
			if !pt.TwoPoint {
				missed++
				if pt.ThreePoint {
					recovered++
				}
			}
		}
	}
	if feasible > 0 {
		res.MissedFraction = float64(missed) / float64(feasible)
	}
	if missed > 0 {
		res.RecoveredFraction = float64(recovered) / float64(missed)
	}
	return res
}

// Print emits the extreme points and the missed/recovered fractions.
func (r Fig5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: IA pair at 1 Mb/s, two-point vs three-point model")
	fmt.Fprintf(w, "primary points: (%.0f,0) (0,%.0f) kb/s; LIR point: (%.0f,%.0f)\n",
		r.C11/1e3, r.C22/1e3, r.C31/1e3, r.C32/1e3)
	fmt.Fprintf(w, "feasible points missed by time-sharing model: %.1f%%\n", 100*r.MissedFraction)
	fmt.Fprintf(w, "missed points recovered by three-point model: %.1f%%\n", 100*r.RecoveredFraction)
	fmt.Fprintln(w, "   y1(kbps)   y2(kbps) measured two-pt three-pt")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%10.0f %10.0f %8v %7v %8v\n", p.Y1/1e3, p.Y2/1e3, p.Measured, p.TwoPoint, p.ThreePoint)
	}
}

// Fig6Row is the expected model error at one LIR threshold.
type Fig6Row struct {
	Threshold float64
	FP, FN    float64
}

// Fig6Result is the §4.4 threshold analysis fed by a measured LIR
// distribution.
type Fig6Result struct {
	Rows []Fig6Row
	// At095 is the operating point the paper reports (FP ~2%, FN ~13%).
	At095 feasibility.PairErrors
}

// fig6Exp is the §4.4 threshold sweep: it reuses fig3's cell enumeration
// and body (the measured LIR population is its input) and swaps the
// reduction for the threshold analysis.
type fig6Exp struct{ fig3Exp }

func (fig6Exp) Name() string { return "fig6" }
func (fig6Exp) Describe() string {
	return "LIR threshold sensitivity over the measured LIR population"
}

func (fig6Exp) Reduce(recs <-chan sink.Record) exp.Result {
	pop := fig3Gather(recs)
	lirs := append(append([]float64(nil), pop.LIR1...), pop.LIR11...)
	return LIRThresholdSweep(lirs)
}

// LIRThresholdSweep sweeps LIR thresholds over a measured LIR population (the
// Fig. 3 LIRs when run as the registered fig6 experiment).
func LIRThresholdSweep(lirs []float64) Fig6Result {
	var res Fig6Result
	for _, th := range []float64{0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.99} {
		e := feasibility.ExpectedLIRErrors(lirs, th)
		res.Rows = append(res.Rows, Fig6Row{Threshold: th, FP: e.FP, FN: e.FN})
	}
	res.At095 = feasibility.ExpectedLIRErrors(lirs, 0.95)
	return res
}

// Print emits the threshold sweep.
func (r Fig6Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 6 / §4.4: expected FP/FN area errors vs LIR threshold")
	fmt.Fprintln(w, "threshold     FP      FN")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "   %.2f     %.3f   %.3f\n", row.Threshold, row.FP, row.FN)
	}
	fmt.Fprintf(w, "at 0.95: FP=%.3f FN=%.3f (paper: 0.02 / 0.133)\n", r.At095.FP, r.At095.FN)
}
