package experiments

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/core/capacity"
	"repro/internal/experiments/exp"
	"repro/internal/measure"
	"repro/internal/phy"
	"repro/internal/probe"
	"repro/internal/scenario/sink"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Fig9Case is one channel-loss estimator example: the sliding-minimum
// curve, the measured loss rate, the true channel loss, and the estimate.
type Fig9Case struct {
	Name  string
	Curve []float64 // p_ch^(W) indexed by W
	P     float64   // measured loss rate
	Truth float64   // analytic channel loss (ground truth)
	Est   capacity.Estimate
}

// Fig9Result reproduces the two cases of Fig. 9.
type Fig9Result struct {
	Uniform  Fig9Case // p reached before S/2 (no interference)
	Interfed Fig9Case // collisions present, knee selection
}

// fig9Cell is one estimator trace case.
type fig9Cell struct {
	seed      int64
	sc        Scale
	name      string
	interfere bool
}

// fig9Exp probes one lossy link twice: alone, then under a hidden
// interferer, and records the estimator's view of both traces.
type fig9Exp struct{}

func (fig9Exp) Name() string { return "fig9" }
func (fig9Exp) Describe() string {
	return "channel-loss estimator cases (sliding-minimum curve and knee)"
}

func (fig9Exp) Cells(seed int64, sc Scale) []exp.Cell {
	return []exp.Cell{
		{Seed: seed, Data: fig9Cell{seed: seed, sc: sc, name: "no interference", interfere: false}},
		{Seed: seed, Data: fig9Cell{seed: seed, sc: sc, name: "hidden interferer", interfere: true}},
	}
}

func (fig9Exp) RunCell(c exp.Cell) sink.Record {
	d := c.Data.(fig9Cell)
	period := probePeriodFor(phy.Rate11, d.sc)
	nw := topology.TwoLink(d.seed, topology.IA, phy.Rate11, phy.Rate11)
	nw.Medium.SetBER(nw.Link1.Src, nw.Link1.Dst, 4e-6)
	rec := probe.NewRecorder(nw.Node(nw.Link1.Dst))
	pr := probe.NewProber(nw.Sim, nw.Node(nw.Link1.Src), phy.Rate11, traffic.DefaultPayload)
	pr.SetPeriod(period)
	pr.Start()
	if d.interfere {
		// Bursty hidden transmitter on link 2. Bursts must be
		// sparse relative to the estimator's maximum-curvature
		// window (~0.14 S) or no clean window exists for the
		// sliding minimum to find.
		burst := traffic.NewCBR(nw.Sim, nw.Node(nw.Link2.Src), 9, nw.Link2.Dst,
			traffic.DefaultPayload, 5e6)
		nw.InstallDirectRoute(nw.Link2)
		var cycle func()
		on := false
		cycle = func() {
			if on {
				burst.Stop()
				nw.Sim.Schedule(nw.Sim.Now()+sim.Time(80)*period, cycle)
			} else {
				burst.Start()
				nw.Sim.Schedule(nw.Sim.Now()+sim.Time(5)*period, cycle)
			}
			on = !on
		}
		cycle()
	}
	nw.Sim.Run(nw.Sim.Now() + sim.Time(d.sc.ProbeWindow+10)*period)
	pr.Stop()
	trace := rec.Trace(nw.Link1.Src, probe.ClassData, d.sc.ProbeWindow)
	est := capacity.EstimateChannelLoss(trace, capacity.DefaultWmin)
	return sink.Record{Fields: []sink.Field{
		sink.F("name", d.name),
		sink.F("p", trace.MeasuredLoss()),
		sink.F("truth", nw.Medium.FrameLossProb(nw.Link1.Src, nw.Link1.Dst, phy.Rate11, traffic.DefaultPayload+phy.MACHeaderBytes)),
		sink.F("est_pch", est.Pch),
		sink.F("est_w", est.W),
		sink.F("est_case", int(est.Case)),
		sink.F("est_p", est.P),
		sink.F("curve", capacity.SlidingMinCurve(trace, capacity.DefaultWmin)),
	}}
}

func (fig9Exp) Reduce(recs <-chan sink.Record) exp.Result {
	var res Fig9Result
	for rec := range recs {
		cs := Fig9Case{
			Name:  rec.Text("name"),
			Curve: rec.Floats("curve"),
			P:     rec.Float("p"),
			Truth: rec.Float("truth"),
			Est: capacity.Estimate{
				Pch:  rec.Float("est_pch"),
				W:    rec.Int("est_w"),
				Case: capacity.EstimateCase(rec.Int("est_case")),
				P:    rec.Float("est_p"),
			},
		}
		if rec.Cell == 0 {
			res.Uniform = cs
		} else {
			res.Interfed = cs
		}
	}
	return res
}

// Print emits both curves.
func (r Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: channel-loss estimator cases")
	caseName := map[capacity.EstimateCase]string{
		capacity.CaseUniform: "uniform/median",
		capacity.CaseKnee:    "log-fit knee",
		capacity.CaseShort:   "short trace",
	}
	for _, c := range []Fig9Case{r.Uniform, r.Interfed} {
		fmt.Fprintf(w, "-- %s: p=%.3f truth=%.3f est=%.3f (%s, W*=%d)\n",
			c.Name, c.P, c.Truth, c.Est.Pch, caseName[c.Est.Case], c.Est.W)
		step := len(c.Curve) / 16
		if step == 0 {
			step = 1
		}
		for wdx := capacity.DefaultWmin; wdx < len(c.Curve); wdx += step {
			fmt.Fprintf(w, "   W=%4d p_ch(W)=%.4f\n", wdx, c.Curve[wdx])
		}
	}
}

// Fig10Result is the estimator accuracy study: the error CDF at the full
// probing window and the RMSE as the window shrinks.
type Fig10Result struct {
	Errors    []float64 // |est - truth| per link at full window
	RMSEByS   map[int]float64
	WindowSet []int
	// ErrCDF and ErrQuantiles render the |err| distribution as
	// streamable record series (series "err_cdf" with x/p points,
	// series "err_quantile" with q/v pairs) — the richer reduction
	// series the record pipeline carries alongside the scalar summary.
	ErrCDF       []sink.Record
	ErrQuantiles []sink.Record
}

// fig10Quantiles is the quantile set Fig. 10's error distribution is
// reduced to.
var fig10Quantiles = []float64{0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// fig10Sample is one probed link's loss trace plus its analytic truth.
type fig10Sample struct {
	trace capacity.LossTrace
	truth float64
}

// fig10Windows is the probing-window sweep for a scale.
func fig10Windows(sc Scale) []float64 {
	var out []float64
	for _, w := range []int{100, 200, 320, 640, 1280} {
		if w < sc.ProbeWindow {
			out = append(out, float64(w))
		}
	}
	return append(out, float64(sc.ProbeWindow))
}

// fig10Share is one rate's probing phase: all mesh nodes probe
// simultaneously (collision-rich, as in the paper's second phase) in one
// simulation whose traces every scoring cell of that rate reads. It is
// computed lazily, once per process, by whichever cell runs first — a
// pure function of (seed, scale, rate), so every worker, process and
// shard sees bit-identical samples (the same contract the shared
// gain-table cache relies on).
type fig10Share struct {
	once    sync.Once
	seed    int64
	sc      Scale
	rate    phy.Rate
	samples map[topology.Link]fig10Sample
	// events holds the shared phase's per-link delivery decisions when
	// the share was built with capture on. The share owns the collector
	// and each scoring cell adopts only its own link's events, so trace
	// record placement is independent of which cell happened to build
	// the shared simulation.
	events map[trace.Link][]trace.Event
}

// sample returns one link's probing trace, building the shared phase on
// first use. captured turns on decision capture for the build; the
// engine enables capture uniformly per run, so every caller passes the
// same value and the once.Do winner is immaterial.
func (s *fig10Share) sample(l topology.Link, captured bool) (fig10Sample, bool) {
	s.once.Do(func() { s.build(captured) })
	smp, ok := s.samples[l]
	return smp, ok
}

func (s *fig10Share) build(captured bool) {
	nw := topologyAtRate(s.seed+int64(s.rate), s.rate)
	var col *trace.Collector
	if captured {
		col = trace.NewCollector()
		nw.Medium.SetTracer(col)
	}
	period := probePeriodFor(s.rate, s.sc)
	links := fig10Links(nw, s.rate, s.sc)
	recs := make([]*probe.Recorder, len(nw.Nodes))
	for i, n := range nw.Nodes {
		recs[i] = probe.NewRecorder(n)
		pr := probe.NewProber(nw.Sim, n, s.rate, traffic.DefaultPayload)
		pr.SetPeriod(period)
		pr.Start()
	}
	nw.Sim.Run(nw.Sim.Now() + sim.Time(s.sc.ProbeWindow+10)*period)
	s.samples = map[topology.Link]fig10Sample{}
	for _, l := range links {
		tr := recs[l.Dst].Trace(l.Src, probe.ClassData, s.sc.ProbeWindow)
		if len(tr) < s.sc.ProbeWindow/2 {
			continue
		}
		truth := nw.Medium.FrameLossProb(l.Src, l.Dst, s.rate, traffic.DefaultPayload+phy.MACHeaderBytes)
		s.samples[l] = fig10Sample{trace: tr, truth: truth}
	}
	if col != nil {
		s.events = map[trace.Link][]trace.Event{}
		for _, l := range col.Links() {
			s.events[l] = col.Events(l)
		}
	}
}

// fig10Links is the deterministic per-rate link sample.
func fig10Links(nw *topology.Network, rate phy.Rate, sc Scale) []topology.Link {
	links := nw.Links(rate)
	if len(links) > sc.Pairs {
		links = links[:sc.Pairs]
	}
	return links
}

// fig10Cell scores one probed link at every window.
type fig10Cell struct {
	share   *fig10Share
	link    topology.Link
	windows []float64
}

// fig10Exp probes all mesh nodes simultaneously at both rates and scores
// the estimator against the analytic channel loss of each sampled link.
// Cells are (rate, link) scoring units sharing the per-rate probe phase.
type fig10Exp struct{}

func (fig10Exp) Name() string { return "fig10" }
func (fig10Exp) Describe() string {
	return "channel-loss estimation accuracy: error CDF and RMSE vs window"
}

func (fig10Exp) Cells(seed int64, sc Scale) []exp.Cell {
	windows := fig10Windows(sc)
	var perRate [][]exp.Cell
	for _, rate := range []phy.Rate{phy.Rate1, phy.Rate11} {
		share := &fig10Share{seed: seed, sc: sc, rate: rate}
		nw := topologyAtRate(seed+int64(rate), rate)
		var cells []exp.Cell
		for _, l := range fig10Links(nw, rate, sc) {
			cells = append(cells, exp.Cell{Seed: seed + int64(rate), Data: fig10Cell{
				share: share, link: l, windows: windows,
			}})
		}
		perRate = append(perRate, cells)
	}
	// Interleave the rates so the earliest cells span both shares: the
	// two probe simulations then build concurrently even when the pool
	// is small (a rate-major order would park every worker on the first
	// rate's once.Do and serialize the heavy phase).
	var cells []exp.Cell
	for i := 0; len(cells) < len(perRate[0])+len(perRate[1]); i++ {
		for _, rc := range perRate {
			if i < len(rc) {
				cells = append(cells, rc[i])
			}
		}
	}
	return cells
}

func (fig10Exp) RunCell(c exp.Cell) sink.Record {
	d := c.Data.(fig10Cell)
	cc, _ := c.Capture.(*trace.CellCapture)
	smp, ok := d.share.sample(d.link, cc != nil)
	if cc != nil {
		lk := trace.Link{Src: d.link.Src, Dst: d.link.Dst}
		cc.Adopt(lk, d.share.events[lk])
	}
	fields := []sink.Field{
		sink.F("link", d.link.String()),
		sink.F("skipped", !ok),
		sink.F("windows", d.windows),
	}
	if !ok {
		return sink.Record{Fields: fields}
	}
	errs := make([]float64, len(d.windows))
	for wi, wf := range d.windows {
		s := int(wf)
		tr := smp.trace
		if len(tr) > s {
			tr = tr[len(tr)-s:]
		}
		est := capacity.EstimateChannelLoss(tr, capacity.DefaultWmin)
		errs[wi] = est.Pch - smp.truth
	}
	fields = append(fields, sink.F("truth", smp.truth), sink.F("errs", errs))
	return sink.Record{Fields: fields}
}

func (fig10Exp) Reduce(recs <-chan sink.Record) exp.Result {
	res := Fig10Result{RMSEByS: map[int]float64{}}
	var se []float64
	samples := 0
	for rec := range recs {
		if res.WindowSet == nil {
			for _, w := range rec.Floats("windows") {
				res.WindowSet = append(res.WindowSet, int(w))
			}
			se = make([]float64, len(res.WindowSet))
		}
		if rec.Bool("skipped") {
			continue
		}
		errs := rec.Floats("errs")
		samples++
		for wi := range res.WindowSet {
			se[wi] += errs[wi] * errs[wi]
		}
		res.Errors = append(res.Errors, math.Abs(errs[len(errs)-1]))
	}
	if samples > 0 {
		for wi, s := range res.WindowSet {
			res.RMSEByS[s] = math.Sqrt(se[wi] / float64(samples))
		}
		cdf := stats.NewCDF(res.Errors)
		res.ErrCDF = cdf.Series("fig10", "err_cdf", 16)
		res.ErrQuantiles = cdf.QuantileSeries("fig10", "err_quantile", fig10Quantiles)
	}
	return res
}

// Print emits the error CDF, its quantile series and the RMSE-vs-S
// series.
func (r Fig10Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 10: channel-loss estimation accuracy (%d links)\n", len(r.Errors))
	cdf := stats.NewCDF(r.Errors)
	fmt.Fprintf(w, "(a) error CDF: median=%.3f p90=%.3f\n", cdf.Quantile(0.5), cdf.Quantile(0.9))
	fmt.Fprint(w, cdf.Format(12))
	for _, q := range r.ErrQuantiles {
		fmt.Fprintf(w, "   q%02.0f |err|=%.4f\n", q.Float("q")*100, q.Float("v"))
	}
	fmt.Fprintln(w, "(b) RMSE vs probing window S:")
	for _, s := range r.WindowSet {
		fmt.Fprintf(w, "   S=%4d  RMSE=%.4f\n", s, r.RMSEByS[s])
	}
}

// Fig11Link is one link's capacity estimates, normalized by nominal.
type Fig11Link struct {
	Link    topology.Link
	MaxUDP  float64
	Online  float64 // Eq. 6 fed by the online loss estimate
	AdHoc   float64 // Ad Hoc Probe estimate
	Nominal float64
}

// Fig11Result compares the online capacity estimator with Ad Hoc Probe
// against measured maxUDP throughput.
type Fig11Result struct {
	Links      []Fig11Link
	OnlineRMSE float64 // vs maxUDP, normalized
	AdHocRMSE  float64
}

// fig11Cell is one (rate, pair) measurement cell.
type fig11Cell struct {
	seed int64
	sc   Scale
	rate phy.Rate
	pair PairSpec
}

// fig11Exp measures sampled links in two phases: solo maxUDP, then
// concurrent probing plus Ad Hoc Probe packet pairs under background
// interference. Every (rate, pair) is an independent cell on its own
// mesh instance.
type fig11Exp struct{}

func (fig11Exp) Name() string { return "fig11" }
func (fig11Exp) Describe() string {
	return "online capacity estimation vs Ad Hoc Probe on sampled links"
}

func (fig11Exp) Cells(seed int64, sc Scale) []exp.Cell {
	var cells []exp.Cell
	for _, rate := range []phy.Rate{phy.Rate1, phy.Rate11} {
		nw := topologyAtRate(seed+int64(rate)*13, rate)
		for _, p := range SamplePairs(nw, rate, sc.Pairs/2+1, seed+int64(rate)) {
			cells = append(cells, exp.Cell{Seed: seed + int64(rate)*13, Data: fig11Cell{
				seed: seed, sc: sc, rate: rate, pair: p,
			}})
		}
	}
	return cells
}

func (fig11Exp) RunCell(c exp.Cell) sink.Record {
	d := c.Data.(fig11Cell)
	rate := d.rate
	nw := topologyAtRate(d.seed+int64(rate)*13, rate)
	period := probePeriodFor(rate, d.sc)
	l := d.pair.L1
	nw.SetRate(l, rate)
	nominal := capacity.NominalGoodput(rate, traffic.DefaultPayload)
	dead := sink.Record{Fields: []sink.Field{sink.F("ok", false)}}

	// Phase 1: solo maxUDP.
	solo := measure.MaxUDP(nw, l, traffic.DefaultPayload, d.sc.PhaseDur)
	if solo.ThroughputBps <= 0 {
		return dead
	}

	// Phase 2: probing + packet pairs under background traffic
	// on the second sampled link.
	rec := probe.NewRecorder(nw.Node(l.Dst))
	pr := probe.NewProber(nw.Sim, nw.Node(l.Src), rate, traffic.DefaultPayload)
	pr.SetPeriod(period)
	nw.InstallDirectRoute(d.pair.L2)
	bg := traffic.NewCBR(nw.Sim, nw.Node(d.pair.L2.Src), 99, d.pair.L2.Dst, traffic.DefaultPayload,
		0.3*capacity.NominalGoodput(rate, traffic.DefaultPayload))
	nw.InstallDirectRoute(l)
	ah := probe.NewAdHocProbe(nw.Sim, nw.Node(l.Src), l.Dst, traffic.DefaultPayload,
		200, 4*period)
	pr.Start()
	bg.Start()
	ah.Start(nw.Node(l.Dst))
	nw.Sim.Run(nw.Sim.Now() + sim.Time(d.sc.ProbeWindow+10)*period)
	pr.Stop()
	bg.Stop()
	ah.Stop()

	est, ok := rec.Estimate(l.Src, d.sc.ProbeWindow)
	if !ok {
		return dead
	}
	online := capacity.MaxUDP(est.Pl, rate, traffic.DefaultPayload)
	return sink.Record{Fields: []sink.Field{
		sink.F("ok", true),
		sink.F("src", l.Src),
		sink.F("dst", l.Dst),
		sink.F("maxudp_bps", solo.ThroughputBps),
		sink.F("online_bps", online),
		sink.F("adhoc_bps", ah.EstimateBps()),
		sink.F("nominal_bps", nominal),
	}}
}

func (fig11Exp) Reduce(recs <-chan sink.Record) exp.Result {
	var res Fig11Result
	var onlineN, adhocN, truthN []float64
	for rec := range recs {
		if !rec.Bool("ok") {
			continue
		}
		l := Fig11Link{
			Link:    topology.Link{Src: rec.Int("src"), Dst: rec.Int("dst")},
			MaxUDP:  rec.Float("maxudp_bps"),
			Online:  rec.Float("online_bps"),
			AdHoc:   rec.Float("adhoc_bps"),
			Nominal: rec.Float("nominal_bps"),
		}
		res.Links = append(res.Links, l)
		onlineN = append(onlineN, l.Online/l.Nominal)
		adhocN = append(adhocN, l.AdHoc/l.Nominal)
		truthN = append(truthN, l.MaxUDP/l.Nominal)
	}
	res.OnlineRMSE = stats.RMSE(onlineN, truthN)
	res.AdHocRMSE = stats.RMSE(adhocN, truthN)
	return res
}

// Print emits per-link normalized estimates as in Fig. 11.
func (r Fig11Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 11: capacity estimation vs Ad Hoc Probe (%d links)\n", len(r.Links))
	fmt.Fprintln(w, "link      maxUDP/nom  online/nom  adhoc/nom")
	for _, l := range r.Links {
		fmt.Fprintf(w, "%-8s   %8.3f   %8.3f   %8.3f\n",
			l.Link, l.MaxUDP/l.Nominal, l.Online/l.Nominal, l.AdHoc/l.Nominal)
	}
	fmt.Fprintf(w, "normalized RMSE vs maxUDP: online=%.3f adhoc=%.3f (paper: online ~0.12, adhoc far worse)\n",
		r.OnlineRMSE, r.AdHocRMSE)
}
