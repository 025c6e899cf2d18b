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

// ExhaustiveResult compares the paper's §3.2 offline alternative — using
// the measured output rates of every backlogged link-activation
// combination as secondary extreme points (O(2^L) measurements, needs
// downtime) — against the online MIS construction from primaries plus the
// binary conflict graph.
type ExhaustiveResult struct {
	Links []topology.Link
	// MeasuredPoints[k] is the measured output-rate vector of the k-th
	// nonempty activation combination.
	MeasuredPoints [][]float64
	// MISAgreement is the fraction of sampled rate vectors on which the
	// two regions agree.
	MISAgreement float64
	// MISConservative is the fraction of disagreements where the MIS
	// region is the smaller one (under-estimates, never over).
	MISConservative float64
	Sampled         int
}

// exhaustiveLinks are the chain links every activation combination
// draws from.
var exhaustiveLinks = []topology.Link{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}

// exhaustiveCell is one activation-mask measurement.
type exhaustiveCell struct {
	seed int64
	sc   Scale
	mask int
}

// exhaustiveExp measures every activation combination of the first three
// links of a mesh chain and compares the resulting measured-point region
// with the MIS region built from solo capacities and measured pairwise
// LIRs. Each activation combination is an independent cell on its own
// chain instance.
type exhaustiveExp struct{}

func (exhaustiveExp) Name() string { return "exhaustive" }
func (exhaustiveExp) Describe() string {
	return "O(2^L) measured feasibility region vs the online MIS construction (§3.2 offline alternative)"
}

func (exhaustiveExp) Cells(seed int64, sc Scale) []exp.Cell {
	var cells []exp.Cell
	for mask := 1; mask < 1<<len(exhaustiveLinks); mask++ {
		cells = append(cells, exp.Cell{Seed: seed, Data: exhaustiveCell{seed: seed, sc: sc, mask: mask}})
	}
	return cells
}

func (exhaustiveExp) RunCell(c exp.Cell) sink.Record {
	d := c.Data.(exhaustiveCell)
	nw := topology.Chain(d.seed, 4, 70, phy.Rate11)
	var active []topology.Link
	for i := range exhaustiveLinks {
		if d.mask&(1<<i) != 0 {
			active = append(active, exhaustiveLinks[i])
		}
	}
	out := measure.Simultaneous(nw, active, traffic.DefaultPayload, d.sc.PhaseDur)
	point := make([]float64, len(exhaustiveLinks))
	ai := 0
	for i := range exhaustiveLinks {
		if d.mask&(1<<i) != 0 {
			point[i] = out[ai].ThroughputBps
			ai++
		}
	}
	return sink.Record{Fields: []sink.Field{
		sink.F("mask", d.mask),
		sink.F("point_bps", point),
	}}
}

func (exhaustiveExp) Reduce(recs <-chan sink.Record) exp.Result {
	links := exhaustiveLinks
	res := ExhaustiveResult{Links: links}
	byMask := map[int][]float64{}
	for rec := range recs {
		point := rec.Floats("point_bps")
		byMask[rec.Int("mask")] = point
		res.MeasuredPoints = append(res.MeasuredPoints, point)
	}
	if len(byMask) < 1<<len(links)-1 {
		return res
	}
	exhaustive := &feasibility.Region{Points: res.MeasuredPoints,
		Capacities: []float64{byMask[1][0], byMask[2][1], byMask[4][2]}}

	// The online-style construction: solo capacities + pairwise LIR.
	caps := exhaustive.Capacities
	lir := make([][]float64, len(links))
	for i := range lir {
		lir[i] = make([]float64, len(links))
		lir[i][i] = 1
	}
	pairMask := func(i, j int) int { return 1<<i | 1<<j }
	for i := 0; i < len(links); i++ {
		for j := i + 1; j < len(links); j++ {
			p := byMask[pairMask(i, j)]
			l := (p[i] + p[j]) / (caps[i] + caps[j])
			lir[i][j], lir[j][i] = l, l
		}
	}
	v := &NetValidation{Caps: caps, LIR: lir}
	mis := v.RegionLIR(LIRThreshold)

	// Sample the capacity box and compare membership.
	const grid = 6
	agree, disagreeConservative, disagree := 0, 0, 0
	y := make([]float64, len(links))
	var visit func(d int)
	visit = func(d int) {
		if d == len(links) {
			res.Sampled++
			inEx := exhaustive.Contains(y)
			inMIS := mis.Contains(y)
			switch {
			case inEx == inMIS:
				agree++
			case inEx && !inMIS:
				disagree++
				disagreeConservative++
			default:
				disagree++
			}
			return
		}
		for k := 1; k <= grid; k++ {
			y[d] = caps[d] * float64(k) / grid
			visit(d + 1)
		}
	}
	visit(0)
	res.MISAgreement = float64(agree) / float64(res.Sampled)
	if disagree > 0 {
		res.MISConservative = float64(disagreeConservative) / float64(disagree)
	} else {
		res.MISConservative = 1
	}
	return res
}

// Print emits the comparison summary.
func (r ExhaustiveResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Exhaustive (2^L) measured region vs online MIS region, L=%d\n", len(r.Links))
	fmt.Fprintf(w, "agreement on %d sampled points: %.0f%%\n", r.Sampled, 100*r.MISAgreement)
	fmt.Fprintf(w, "disagreements where MIS is the conservative side: %.0f%%\n", 100*r.MISConservative)
	for i, p := range r.MeasuredPoints {
		fmt.Fprintf(w, "  combo %03b: %v kb/s\n", i+1, kbps(p))
	}
}

func kbps(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int(x / 1e3))
	}
	return out
}
