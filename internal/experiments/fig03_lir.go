package experiments

import (
	"fmt"
	"io"

	"repro/internal/experiments/exp"
	"repro/internal/measure"
	"repro/internal/phy"
	"repro/internal/scenario/sink"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Fig3Result holds the LIR populations of Fig. 3: the CDF of Link
// Interference Ratios across tested link pairs at 1 Mb/s and 11 Mb/s.
type Fig3Result struct {
	LIR1  []float64 // per-pair LIRs at 1 Mb/s
	LIR11 []float64 // per-pair LIRs at 11 Mb/s
}

// fig3Cell is one independent measurement cell: a link pair at a rate.
type fig3Cell struct {
	seed int64
	sc   Scale
	rate phy.Rate
	pair PairSpec
}

// fig3Exp measures LIRs over sampled node-disjoint link pairs of the
// 18-node mesh at both data rates. Every pair is an independent cell —
// it rebuilds the mesh from the run seed and owns its simulator.
type fig3Exp struct{}

func (fig3Exp) Name() string { return "fig3" }
func (fig3Exp) Describe() string {
	return "pairwise LIR distributions at 1 and 11 Mb/s (bimodality of interference)"
}

func (fig3Exp) Cells(seed int64, sc Scale) []exp.Cell {
	var cells []exp.Cell
	for _, rate := range []phy.Rate{phy.Rate1, phy.Rate11} {
		nw := topologyAtRate(seed, rate)
		for _, p := range SamplePairs(nw, rate, sc.Pairs, seed+int64(rate)) {
			cells = append(cells, exp.Cell{Seed: seed, Data: fig3Cell{seed: seed, sc: sc, rate: rate, pair: p}})
		}
	}
	return cells
}

func (fig3Exp) RunCell(c exp.Cell) sink.Record {
	d := c.Data.(fig3Cell)
	nw := topologyAtRate(d.seed, d.rate)
	nw.SetRate(d.pair.L1, d.rate)
	nw.SetRate(d.pair.L2, d.rate)
	r := measure.MeasureLIR(nw, d.pair.L1, d.pair.L2, traffic.DefaultPayload, d.sc.PhaseDur)
	lir := -1.0 // dead link; the paper excludes such pairs too
	if r.C11 > 0 && r.C22 > 0 {
		lir = r.LIR()
		if lir > 1 {
			lir = 1 // measurement noise can nudge past 1
		}
	}
	return sink.Record{Fields: []sink.Field{
		sink.F("rate", int(d.rate)),
		sink.F("pair", d.pair.L1.String()+"|"+d.pair.L2.String()),
		sink.F("lir", lir),
	}}
}

func (fig3Exp) Reduce(recs <-chan sink.Record) exp.Result {
	return fig3Gather(recs)
}

// fig3Gather folds the record stream into the two per-rate populations;
// fig3 and fig6 share it.
func fig3Gather(recs <-chan sink.Record) Fig3Result {
	var res Fig3Result
	for rec := range recs {
		lir := rec.Float("lir")
		if lir < 0 {
			continue
		}
		if phy.Rate(rec.Int("rate")) == phy.Rate1 {
			res.LIR1 = append(res.LIR1, lir)
		} else {
			res.LIR11 = append(res.LIR11, lir)
		}
	}
	return res
}

// Bimodality summarizes the two-mode structure the paper reports: the
// fraction of pairs below 0.7 (clearly interfering) and above 0.95
// (clearly independent).
func (r Fig3Result) Bimodality() (below07, above095 float64) {
	all := append(append([]float64(nil), r.LIR1...), r.LIR11...)
	if len(all) == 0 {
		return 0, 0
	}
	var lo, hi int
	for _, v := range all {
		if v < 0.7 {
			lo++
		}
		if v > 0.95 {
			hi++
		}
	}
	return float64(lo) / float64(len(all)), float64(hi) / float64(len(all))
}

// Print emits the two CDFs as the paper plots them.
func (r Fig3Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: CDF of LIRs (%d pairs @1Mbps, %d pairs @11Mbps)\n",
		len(r.LIR1), len(r.LIR11))
	fmt.Fprintln(w, "-- 1 Mb/s: LIR  F(LIR)")
	fmt.Fprint(w, stats.NewCDF(r.LIR1).Format(20))
	fmt.Fprintln(w, "-- 11 Mb/s: LIR  F(LIR)")
	fmt.Fprint(w, stats.NewCDF(r.LIR11).Format(20))
	lo, hi := r.Bimodality()
	fmt.Fprintf(w, "mass below 0.7: %.2f   mass above 0.95: %.2f\n", lo, hi)
}

// topologyAtRate builds the 18-node mesh with every node defaulting to
// the given modulation.
func topologyAtRate(seed int64, rate phy.Rate) *topology.Network {
	nw := topology.Mesh18(seed)
	for _, n := range nw.Nodes {
		n.SetDefaultRate(rate)
	}
	return nw
}
