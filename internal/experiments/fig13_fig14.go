package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core/controller"
	"repro/internal/core/optimize"
	"repro/internal/experiments/exp"
	"repro/internal/phy"
	"repro/internal/scenario/sink"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Regime names the three Fig. 13/14 operating modes.
type Regime int

// Operating modes.
const (
	NoRC Regime = iota // plain TCP, no rate control
	RCMax
	RCProp
)

func (r Regime) String() string {
	switch r {
	case NoRC:
		return "TCP-noRC"
	case RCMax:
		return "TCP-Max"
	case RCProp:
		return "TCP-Prop"
	}
	return fmt.Sprintf("Regime(%d)", int(r))
}

func (r Regime) objective() optimize.Objective {
	if r == RCMax {
		return optimize.MaxThroughput
	}
	return optimize.ProportionalFair
}

// tcpRun executes one regime on a prepared network and returns per-flow
// goodputs plus the plan (nil for NoRC routing-only runs it still
// computes the plan to install routes).
func tcpRun(nw *topology.Network, flows []controller.Flow, rate phy.Rate, regime Regime, sc Scale) ([]float64, *controller.Plan, error) {
	cfg := controller.DefaultConfig(rate)
	cfg.ProbePeriod = probePeriodFor(rate, sc)
	cfg.ProbeWindow = sc.ProbeWindow
	cfg.Objective = regime.objective()
	c := controller.New(nw, flows, cfg)
	c.ProbeFullWindow()
	plan, err := c.Compute()
	if err != nil {
		return nil, nil, err
	}
	var tcp []*transport.Flow
	if regime == NoRC {
		for s, f := range flows {
			fl := transport.NewFlow(nw.Sim, nw.Nodes[f.Src], nw.Nodes[f.Dst], s)
			fl.Start()
			tcp = append(tcp, fl)
		}
	} else {
		tcp, _ = c.ApplyTCP(plan)
	}
	nw.Sim.Run(nw.Sim.Now() + sc.TrafficDur)
	out := make([]float64, len(tcp))
	for i, f := range tcp {
		f.Stop()
		out[i] = f.GoodputBps()
	}
	return out, plan, nil
}

// Fig13Result is the two-flow upstream starvation experiment: per-regime
// throughput summaries for the 1-hop and 2-hop flows.
type Fig13Result struct {
	// PerRegime[regime] = [2]Summary{1-hop flow, 2-hop flow}.
	PerRegime map[Regime][2]stats.Summary
	Totals    map[Regime]float64
}

// fig13Cell is one (regime, iteration) run.
type fig13Cell struct {
	seed   int64
	sc     Scale
	regime Regime
	it     int
}

// fig13Exp runs the gateway starvation scenario at 1 Mb/s under the
// three regimes, repeated per iteration with fresh MAC randomness. Each
// (regime, iteration) run is an independent cell.
type fig13Exp struct{}

func (fig13Exp) Name() string { return "fig13" }
func (fig13Exp) Describe() string {
	return "two-flow upstream TCP starvation and rate-control regimes"
}

func (fig13Exp) Cells(seed int64, sc Scale) []exp.Cell {
	var cells []exp.Cell
	for _, regime := range []Regime{NoRC, RCMax, RCProp} {
		for it := 0; it < sc.Iterations; it++ {
			cells = append(cells, exp.Cell{Seed: seed + int64(it)*17, Data: fig13Cell{
				seed: seed, sc: sc, regime: regime, it: it,
			}})
		}
	}
	return cells
}

func (fig13Exp) RunCell(c exp.Cell) sink.Record {
	d := c.Data.(fig13Cell)
	flows := []controller.Flow{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}}
	nw := topology.GatewayScenario(d.seed+int64(d.it)*17, phy.Rate1)
	out, _, err := tcpRun(nw, flows, phy.Rate1, d.regime, d.sc)
	fields := []sink.Field{
		sink.F("regime", int(d.regime)),
		sink.F("iteration", d.it),
		sink.F("failed", err != nil),
	}
	if err == nil {
		fields = append(fields, sink.F("goodput_bps", out))
	}
	return sink.Record{Fields: fields}
}

func (fig13Exp) Reduce(recs <-chan sink.Record) exp.Result {
	res := Fig13Result{
		PerRegime: map[Regime][2]stats.Summary{},
		Totals:    map[Regime]float64{},
	}
	perRegime := map[Regime][2][]float64{}
	for rec := range recs {
		if rec.Bool("failed") {
			continue
		}
		got := rec.Floats("goodput_bps")
		regime := Regime(rec.Int("regime"))
		e := perRegime[regime]
		e[0] = append(e[0], got[0])
		e[1] = append(e[1], got[1])
		perRegime[regime] = e
	}
	for _, regime := range []Regime{NoRC, RCMax, RCProp} {
		e := perRegime[regime]
		res.PerRegime[regime] = [2]stats.Summary{stats.Summarize(e[0]), stats.Summarize(e[1])}
		res.Totals[regime] = stats.Mean(e[0]) + stats.Mean(e[1])
	}
	return res
}

// Print emits the Fig. 13 bars.
func (r Fig13Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 13: two-flow upstream TCP starvation at 1 Mb/s")
	fmt.Fprintln(w, "regime     1-hop kbps (mean/min/max)   2-hop kbps (mean/min/max)   total")
	for _, regime := range []Regime{NoRC, RCMax, RCProp} {
		s := r.PerRegime[regime]
		fmt.Fprintf(w, "%-9s  %7.0f/%7.0f/%7.0f     %7.0f/%7.0f/%7.0f   %7.0f\n",
			regime,
			s[0].Mean/1e3, s[0].Min/1e3, s[0].Max/1e3,
			s[1].Mean/1e3, s[1].Min/1e3, s[1].Max/1e3,
			r.Totals[regime]/1e3)
	}
}

// Fig14Result is the multi-config TCP suite: aggregate-throughput ratios,
// fairness, feasibility, and stability.
type Fig14Result struct {
	// RatioMax and RatioProp are per-config aggregate TCP-RC/TCP-noRC.
	RatioMax, RatioProp []float64
	// JFInoRC and JFIProp are per-config Jain indices.
	JFInoRC, JFIProp []float64
	// Feasibility is achieved/limit per RC flow.
	Feasibility []float64
	// StabilityNoRC and StabilityRC are |x-mean|/mean deviations across
	// iterations per flow.
	StabilityNoRC, StabilityRC []float64
	Skipped                    int
}

// fig14Run is the outcome of one (config, regime, iteration) cell, as
// rebuilt from its record.
type fig14Run struct {
	regime Regime
	got    []float64
	limits []float64 // RCProp it==0 only: per-flow TCP feasibility limits
	failed bool
}

// fig14Cell is one (config, regime, iteration) unit of work.
type fig14Cell struct {
	sc     Scale
	cfg    FlowConfig
	config int
	regime Regime
	it     int
}

// fig14Exp evaluates the three regimes over generated multi-hop
// configurations. Every (config, regime, iteration) run builds its own
// mesh and is an independent cell; the reduction folds each
// configuration as its last cell streams, so only one configuration's
// runs are ever held. A config whose cells all ran still counts as
// skipped if any of its runs failed, matching the sequential early-exit
// semantics.
type fig14Exp struct{}

func (fig14Exp) Name() string { return "fig14" }
func (fig14Exp) Describe() string {
	return "multi-config TCP suite: throughput ratio, fairness, feasibility, stability"
}

func (fig14Exp) Cells(seed int64, sc Scale) []exp.Cell {
	var cells []exp.Cell
	for ci, cfg := range GenerateConfigs(seed, sc.Configs) {
		for _, regime := range []Regime{NoRC, RCMax, RCProp} {
			for it := 0; it < sc.Iterations; it++ {
				cells = append(cells, exp.Cell{Seed: cfg.Seed, Data: fig14Cell{
					sc: sc, cfg: cfg, config: ci, regime: regime, it: it,
				}})
			}
		}
	}
	return cells
}

func (fig14Exp) RunCell(c exp.Cell) sink.Record {
	d := c.Data.(fig14Cell)
	flows := make([]controller.Flow, len(d.cfg.Flows))
	for i, f := range d.cfg.Flows {
		flows[i] = controller.Flow{Src: f.Src, Dst: f.Dst}
	}
	nw := topology.Mesh18Seeded(d.cfg.Seed, d.cfg.Seed+int64(d.it)*29+int64(d.regime)*113)
	for _, n := range nw.Nodes {
		n.SetDefaultRate(d.cfg.Rate)
	}
	got, plan, err := tcpRun(nw, flows, d.cfg.Rate, d.regime, d.sc)
	fields := []sink.Field{
		sink.F("config", d.config),
		sink.F("regime", int(d.regime)),
		sink.F("iteration", d.it),
		sink.F("flows", len(d.cfg.Flows)),
		sink.F("failed", err != nil),
	}
	if err != nil {
		return sink.Record{Fields: fields}
	}
	var agg float64
	for _, v := range got {
		agg += v
	}
	fields = append(fields, sink.F("agg_bps", agg), sink.F("goodput_bps", got))
	if d.regime == RCProp && d.it == 0 {
		scale := optimize.TCPAckScale(transport.HeaderBytes, transport.ACKBytes, transport.MSS)
		limits := make([]float64, len(flows))
		for s := range flows {
			limits[s] = plan.OutputRates[s] * scale
		}
		fields = append(fields, sink.F("limits_bps", limits))
	}
	return sink.Record{Fields: fields}
}

func (fig14Exp) Reduce(recs <-chan sink.Record) exp.Result {
	var res Fig14Result
	config := -1
	var window []fig14Run // the in-flight config's runs, in cell order
	flush := func() {
		if config >= 0 {
			reduceFig14Config(&res, window)
		}
		window = window[:0]
	}
	for rec := range recs {
		if ci := rec.Int("config"); ci != config {
			flush()
			config = ci
		}
		window = append(window, fig14Run{
			regime: Regime(rec.Int("regime")),
			got:    rec.Floats("goodput_bps"),
			limits: rec.Floats("limits_bps"),
			failed: rec.Bool("failed"),
		})
	}
	flush()
	return res
}

// reduceFig14Config folds one configuration's runs into the result. The
// fold order matches the original gather-then-reduce exactly, so the
// reduced floats are bit-identical to it.
func reduceFig14Config(res *Fig14Result, runs []fig14Run) {
	perRegime := map[Regime][][]float64{} // regime -> iterations -> per-flow goodput
	var limits []float64
	for i := range runs {
		if runs[i].failed {
			res.Skipped++
			return
		}
		perRegime[runs[i].regime] = append(perRegime[runs[i].regime], runs[i].got)
		if runs[i].limits != nil {
			limits = runs[i].limits
		}
	}

	agg := func(rs [][]float64) float64 {
		var t float64
		for _, run := range rs {
			for _, v := range run {
				t += v
			}
		}
		return t / float64(len(rs))
	}
	base := agg(perRegime[NoRC])
	if base > 0 {
		res.RatioMax = append(res.RatioMax, agg(perRegime[RCMax])/base)
		res.RatioProp = append(res.RatioProp, agg(perRegime[RCProp])/base)
	}
	res.JFInoRC = append(res.JFInoRC, stats.JainIndex(meanPerFlow(perRegime[NoRC])))
	res.JFIProp = append(res.JFIProp, stats.JainIndex(meanPerFlow(perRegime[RCProp])))

	propMeans := meanPerFlow(perRegime[RCProp])
	feasible := make([]bool, len(propMeans))
	for s, lim := range limits {
		if lim > 0 && s < len(propMeans) {
			f := propMeans[s] / lim
			res.Feasibility = append(res.Feasibility, f)
			feasible[s] = f >= 0.9
		}
	}
	res.StabilityNoRC = append(res.StabilityNoRC, deviations(perRegime[NoRC], nil)...)
	// The paper's Fig. 14(d) reports stability over the feasible flows of
	// Fig. 14(c).
	res.StabilityRC = append(res.StabilityRC, deviations(perRegime[RCProp], feasible)...)
}

// meanPerFlow averages per-flow goodputs across iterations.
func meanPerFlow(runs [][]float64) []float64 {
	if len(runs) == 0 {
		return nil
	}
	out := make([]float64, len(runs[0]))
	for _, run := range runs {
		for i, v := range run {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(runs))
	}
	return out
}

// deviations returns |x - mean|/mean per flow per iteration. A non-nil
// include mask restricts which flows contribute.
func deviations(runs [][]float64, include []bool) []float64 {
	means := meanPerFlow(runs)
	var out []float64
	for _, run := range runs {
		for i, v := range run {
			if include != nil && (i >= len(include) || !include[i]) {
				continue
			}
			if means[i] > 0 {
				out = append(out, math.Abs(v-means[i])/means[i])
			}
		}
	}
	return out
}

// Print emits the four Fig. 14 panels.
func (r Fig14Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 14: TCP suite over %d configs (%d skipped)\n",
		len(r.RatioMax)+r.Skipped, r.Skipped)
	rm, rp := stats.NewCDF(r.RatioMax), stats.NewCDF(r.RatioProp)
	fmt.Fprintf(w, "(a) aggregate TCP-RC/TCP-noRC: Max median=%.2f max=%.2f | Prop median=%.2f p20=%.2f\n",
		rm.Quantile(0.5), rm.Quantile(1), rp.Quantile(0.5), rp.Quantile(0.2))
	fmt.Fprintf(w, "(b) Jain index: noRC median=%.2f | Prop median=%.2f\n",
		stats.NewCDF(r.JFInoRC).Quantile(0.5), stats.NewCDF(r.JFIProp).Quantile(0.5))
	f := stats.NewCDF(r.Feasibility)
	fmt.Fprintf(w, "(c) feasibility achieved/limit: median=%.2f p30=%.2f (n=%d)\n",
		f.Quantile(0.5), f.Quantile(0.3), f.N())
	sn, sr := stats.NewCDF(r.StabilityNoRC), stats.NewCDF(r.StabilityRC)
	fmt.Fprintf(w, "(d) stability |x-mean|/mean: noRC p70=%.2f | RC p70=%.2f\n",
		sn.Quantile(0.7), sr.Quantile(0.7))
}
