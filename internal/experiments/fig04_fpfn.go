package experiments

import (
	"fmt"
	"io"

	"repro/internal/core/feasibility"
	"repro/internal/experiments/exp"
	"repro/internal/measure"
	"repro/internal/phy"
	"repro/internal/scenario/sink"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// PairOutcome is one two-link configuration's model accuracy.
type PairOutcome struct {
	Class      topology.Class
	Rates      [2]phy.Rate
	LIR        measure.LIRResult
	FP2, FN2   float64 // two-point (binary LIR) model errors
	FP3, FN3   float64 // three-point model errors
	Tested     int
	MissedArea float64 // fraction of measured-feasible points outside TS
}

// Fig4Result aggregates FP/FN error rates per topology class.
type Fig4Result struct {
	Outcomes []PairOutcome
}

// fig4RateCombos are the data-rate combinations of §4.3.1.
var fig4RateCombos = [][2]phy.Rate{
	{phy.Rate1, phy.Rate1},
	{phy.Rate11, phy.Rate11},
	{phy.Rate1, phy.Rate11},
}

// fig4Cell is one (class, rate combo, channel variant) configuration.
type fig4Cell struct {
	sc      Scale
	class   topology.Class
	combo   [2]phy.Rate
	variant int // 0 = clean channel, 1 = lossy
	seed    int64
}

// fig4Exp evaluates the binary-LIR two-point model (and the three-point
// extension) on the CS/IA/NF classes across rate combinations, with and
// without channel losses. Each configuration builds its own two-link
// network, so the 18 cells fan out across the worker pool.
type fig4Exp struct{}

func (fig4Exp) Name() string { return "fig4" }
func (fig4Exp) Describe() string {
	return "binary interference classifier false positives/negatives per class"
}

func (fig4Exp) Cells(seed int64, sc Scale) []exp.Cell {
	var cells []exp.Cell
	for _, class := range []topology.Class{topology.CS, topology.IA, topology.NF} {
		for ci, combo := range fig4RateCombos {
			for variant := 0; variant < 2; variant++ { // clean / lossy channel
				cellSeed := seed + int64(ci)*7 + int64(class)*31 + int64(variant)*997
				cells = append(cells, exp.Cell{Seed: cellSeed, Data: fig4Cell{
					sc: sc, class: class, combo: combo, variant: variant, seed: cellSeed,
				}})
			}
		}
	}
	return cells
}

func (fig4Exp) RunCell(c exp.Cell) sink.Record {
	d := c.Data.(fig4Cell)
	nw := topology.TwoLink(d.seed, d.class, d.combo[0], d.combo[1])
	if d.variant == 1 {
		nw.Medium.SetBER(nw.Link1.Src, nw.Link1.Dst, 8e-6)
	}
	out := evalPair(nw, d.class, d.combo, d.sc)
	return sink.Record{Fields: []sink.Field{
		sink.F("class", int(out.Class)),
		sink.F("rate1", int(out.Rates[0])),
		sink.F("rate2", int(out.Rates[1])),
		sink.F("c11", out.LIR.C11),
		sink.F("c22", out.LIR.C22),
		sink.F("c31", out.LIR.C31),
		sink.F("c32", out.LIR.C32),
		sink.F("fp2", out.FP2),
		sink.F("fn2", out.FN2),
		sink.F("fp3", out.FP3),
		sink.F("fn3", out.FN3),
		sink.F("tested", out.Tested),
		sink.F("missed_area", out.MissedArea),
	}}
}

func (fig4Exp) Reduce(recs <-chan sink.Record) exp.Result {
	var res Fig4Result
	for rec := range recs {
		if rec.Int("tested") == 0 {
			continue
		}
		res.Outcomes = append(res.Outcomes, PairOutcome{
			Class: topology.Class(rec.Int("class")),
			Rates: [2]phy.Rate{phy.Rate(rec.Int("rate1")), phy.Rate(rec.Int("rate2"))},
			LIR: measure.LIRResult{
				C11: rec.Float("c11"), C22: rec.Float("c22"),
				C31: rec.Float("c31"), C32: rec.Float("c32"),
			},
			FP2: rec.Float("fp2"), FN2: rec.Float("fn2"),
			FP3: rec.Float("fp3"), FN3: rec.Float("fn3"),
			Tested:     rec.Int("tested"),
			MissedArea: rec.Float("missed_area"),
		})
	}
	return res
}

// evalPair runs the §4.3.1 methodology on one pair: measure the primaries
// and the LIR point, then grid-sample the independent region and compare
// model predictions with measured feasibility.
func evalPair(nw *topology.TwoLinkResult, class topology.Class, combo [2]phy.Rate, sc Scale) PairOutcome {
	out := PairOutcome{Class: class, Rates: combo}

	solo1 := measure.MaxUDP(nw.Network, nw.Link1, traffic.DefaultPayload, sc.PhaseDur)
	solo2 := measure.MaxUDP(nw.Network, nw.Link2, traffic.DefaultPayload, sc.PhaseDur)
	both := measure.Simultaneous(nw.Network, []topology.Link{nw.Link1, nw.Link2},
		traffic.DefaultPayload, sc.PhaseDur)
	out.LIR = measure.LIRResult{
		C11: solo1.ThroughputBps, C22: solo2.ThroughputBps,
		C31: both[0].ThroughputBps, C32: both[1].ThroughputBps,
	}
	if out.LIR.C11 <= 0 || out.LIR.C22 <= 0 {
		return out
	}

	lir := out.LIR.LIR()
	two := feasibility.TwoLinkModel{
		C11: out.LIR.C11, C22: out.LIR.C22,
		Independent: lir >= LIRThreshold,
	}
	three := feasibility.TwoLinkModel{
		C11: out.LIR.C11, C22: out.LIR.C22,
		ThreePoint: true, C31: out.LIR.C31, C32: out.LIR.C32,
		Independent: lir >= LIRThreshold,
	}

	flows := []measure.Flow{{Src: nw.Link1.Src, Dst: nw.Link1.Dst}, {Src: nw.Link2.Src, Dst: nw.Link2.Dst}}
	var fp2, fn2, fp3, fn3, missed, feasTotal int
	n := sc.GridN
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			x1 := out.LIR.C11 * float64(i) / float64(n)
			x2 := out.LIR.C22 * float64(j) / float64(n)
			in1 := x1 / (1 - solo1.LossRate)
			in2 := x2 / (1 - solo2.LossRate)
			res := measure.InjectRates(nw.Network, flows, []float64{in1, in2},
				traffic.DefaultPayload, sc.TrafficDur)
			// Feasible if both outputs reach 98% of the loss-adjusted
			// target (the paper's 2% criterion).
			feas := res[0].OutputBps >= 0.98*x1 && res[1].OutputBps >= 0.98*x2
			p2 := two.Feasible(x1, x2)
			p3 := three.Feasible(x1, x2)
			out.Tested++
			if feas {
				feasTotal++
				if x1/out.LIR.C11+x2/out.LIR.C22 > 1.001 {
					missed++
				}
			}
			switch {
			case p2 && !feas:
				fp2++
			case !p2 && feas:
				fn2++
			}
			switch {
			case p3 && !feas:
				fp3++
			case !p3 && feas:
				fn3++
			}
		}
	}
	t := float64(out.Tested)
	out.FP2, out.FN2 = float64(fp2)/t, float64(fn2)/t
	out.FP3, out.FN3 = float64(fp3)/t, float64(fn3)/t
	if feasTotal > 0 {
		out.MissedArea = float64(missed) / float64(feasTotal)
	}
	return out
}

// ByClass groups FP/FN summaries per topology class for the two-point
// model (the bars of Fig. 4).
func (r Fig4Result) ByClass() map[topology.Class][2]stats.Summary {
	acc := map[topology.Class][2][]float64{}
	for _, o := range r.Outcomes {
		e := acc[o.Class]
		e[0] = append(e[0], o.FP2)
		e[1] = append(e[1], o.FN2)
		acc[o.Class] = e
	}
	out := map[topology.Class][2]stats.Summary{}
	for c, e := range acc {
		out[c] = [2]stats.Summary{stats.Summarize(e[0]), stats.Summarize(e[1])}
	}
	return out
}

// ThreePointFNReduction reports mean FN for the two- and three-point
// models over IA/NF pairs — the §4.3.2 claim that the third point removes
// almost all FNs.
func (r Fig4Result) ThreePointFNReduction() (fn2, fn3 float64) {
	var a, b []float64
	for _, o := range r.Outcomes {
		if o.Class == topology.IA || o.Class == topology.NF {
			a = append(a, o.FN2)
			b = append(b, o.FN3)
		}
	}
	return stats.Mean(a), stats.Mean(b)
}

// Print emits per-class FP/FN bars and the three-point comparison.
func (r Fig4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: FP/FN of the binary-LIR two-point model (%d configs)\n", len(r.Outcomes))
	fmt.Fprintln(w, "class   FP(mean/min/max)          FN(mean/min/max)")
	by := r.ByClass()
	for _, c := range []topology.Class{topology.CS, topology.IA, topology.NF} {
		s := by[c]
		fmt.Fprintf(w, "%-6s  %.3f/%.3f/%.3f        %.3f/%.3f/%.3f\n", c,
			s[0].Mean, s[0].Min, s[0].Max, s[1].Mean, s[1].Min, s[1].Max)
	}
	fn2, fn3 := r.ThreePointFNReduction()
	fmt.Fprintf(w, "three-point model on IA/NF: FN %.3f -> %.3f\n", fn2, fn3)
}
