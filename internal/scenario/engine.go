package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core/capacity"
	"repro/internal/core/controller"
	"repro/internal/core/optimize"
	"repro/internal/measure"
	"repro/internal/phy"
	"repro/internal/probe"
	"repro/internal/scenario/sink"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// Options tunes cell execution. Scenarios run through the experiment
// adapter (Experiment) and the exp engine — the legacy in-package run
// loop is gone — but cell bodies still need the quick-scale knob.
type Options struct {
	// Quick caps declarative durations and probe windows for smoke
	// runs; the experiment adapter derives it from the run scale.
	Quick bool
	// Capture, when set, is installed on the cell's medium right after
	// topology construction: the tracer records every delivery
	// decision, and a carried replay channel overrides the stochastic
	// channel (see internal/trace).
	Capture *trace.CellCapture
}

// sweepPoint is one cell's coordinates in the sweep cross product.
type sweepPoint struct {
	names  []string
	values []float64
}

// sweepPoints expands the sweep axes row-major, last axis fastest.
func sweepPoints(spec *Spec) []sweepPoint {
	points := []sweepPoint{{}}
	for _, ax := range spec.Sweep {
		var next []sweepPoint
		for _, pt := range points {
			for _, v := range ax.Values {
				next = append(next, sweepPoint{
					names:  append(append([]string(nil), pt.names...), ax.Name),
					values: append(append([]float64(nil), pt.values...), v),
				})
			}
		}
		points = next
	}
	return points
}

// cellResult is one cell's streamed records plus a one-line summary.
type cellResult struct {
	records []sink.Record
	summary string
}

// cellParams is the spec resolved at one sweep point.
type cellParams struct {
	seed   int64
	alpha  *float64 // overrides the controller objective
	regime int      // 0 noRC, 1 RC max, 2 RC prop; -1 = no regime axis
}

// durations derived from the spec, with the Quick caps applied.
func (o Options) trafficDur(sec float64) sim.Time {
	if o.Quick && sec > 5 {
		sec = 5
	}
	return sim.Time(sec * float64(sim.Second))
}

func (o Options) probeWindow(w int) int {
	if w <= 0 {
		w = 200
	}
	if o.Quick && w > 200 {
		w = 200
	}
	return w
}

// runCell executes one simulation cell. Cells are fully independent:
// each builds its own simulator, medium and node stack from the cell
// seed, per the runner's determinism contract.
func runCell(spec *Spec, o Options, baseSeed int64, idx int, pt sweepPoint) cellResult {
	p := cellParams{seed: baseSeed, regime: -1}
	for i, name := range pt.names {
		v := pt.values[i]
		switch name {
		case "seed":
			p.seed = int64(v)
		case "alpha":
			a := v
			p.alpha = &a
		case "regime":
			p.regime = int(v)
		}
	}

	axisFields := make([]sink.Field, 0, len(pt.names)+1)
	axisFields = append(axisFields, sink.F("seed", p.seed))
	for i, name := range pt.names {
		if name != "seed" {
			axisFields = append(axisFields, sink.F(name, pt.values[i]))
		}
	}
	var res cellResult
	emit := func(series string, fields ...sink.Field) {
		res.records = append(res.records, sink.Record{
			Scenario: spec.Name,
			Series:   series,
			Cell:     idx,
			Fields:   append(append([]sink.Field(nil), axisFields...), fields...),
		})
	}

	nw, err := buildTopology(spec, p.seed)
	if err != nil {
		emit("error", sink.F("error", err.Error()))
		res.summary = "error: " + err.Error()
		return res
	}
	if o.Capture != nil {
		o.Capture.Install(nw.Medium)
	}
	rate, _ := parseRate(spec.Topology.Rate)
	payload := traffic.DefaultPayload

	// Ground-truth phase: solo maxUDP on the probed link, before any
	// traffic or probing disturbs the medium.
	var truthBps float64
	ps := spec.Measure.Probe
	if ps != nil && ps.MeasureTruth {
		dur := o.trafficDur(10)
		truth := measure.MaxUDP(nw, topology.Link{Src: ps.Src, Dst: ps.Dst}, payload, dur)
		truthBps = truth.ThroughputBps
	}

	// Controller phase: probe, estimate, model, optimize.
	var plan *controller.Plan
	var ctrl *controller.Controller
	var managed []controller.Flow
	if cs := spec.Controller; cs != nil {
		cfg := controller.DefaultConfig(rate)
		cfg.Objective = objectiveFor(cs, p)
		if cs.ProbePeriodMs > 0 {
			cfg.ProbePeriod = sim.Time(cs.ProbePeriodMs * float64(sim.Millisecond))
		}
		cfg.ProbeWindow = o.probeWindow(cs.ProbeWindow)
		for _, f := range spec.Traffic {
			managed = append(managed, controller.Flow{Src: f.Src, Dst: f.Dst})
		}
		ctrl = controller.New(nw, managed, cfg)
		ctrl.ProbeFullWindow()
		plan, err = ctrl.Compute()
		if err != nil {
			emit("error", sink.F("error", err.Error()))
			res.summary = "plan failed: " + err.Error()
			return res
		}
		for i, l := range plan.Links {
			emit("link",
				sink.F("link", l.String()),
				sink.F("capacity_bps", plan.Capacities[i]),
				sink.F("loss", plan.LossRates[i]))
		}
		for s := range managed {
			emit("plan",
				sink.F("flow", s),
				sink.F("src", managed[s].Src),
				sink.F("dst", managed[s].Dst),
				sink.F("hops", len(plan.FlowPaths[s])-1),
				sink.F("output_bps", plan.OutputRates[s]),
				sink.F("input_bps", plan.InputRates[s]))
		}
		res.summary = fmt.Sprintf("plan: %d links, %d flows", len(plan.Links), len(managed))
	}

	dur := o.trafficDur(spec.Measure.DurationSec)
	if dur == 0 && ps == nil {
		if res.summary == "" {
			res.summary = "no measurement phase"
		}
		return res // plan-only
	}

	// Traffic phase.
	stop, goodput := startTraffic(spec, nw, ctrl, plan, p, payload)

	// Probe phase: online estimation on one link while traffic runs.
	var rec *probe.Recorder
	var adhoc *probe.AdHocProbe
	var probeRun sim.Time
	if ps != nil {
		period := probePeriod(ps)
		window := o.probeWindow(ps.Window)
		rec = probe.NewRecorder(nw.Node(ps.Dst))
		pr := probe.NewProber(nw.Sim, nw.Node(ps.Src), rate, payload)
		pr.SetPeriod(period)
		pr.Start()
		defer pr.Stop()
		if ps.AdHoc {
			adhoc = probe.NewAdHocProbe(nw.Sim, nw.Node(ps.Src), ps.Dst, payload, 200, 4*period)
			adhoc.Start(nw.Node(ps.Dst))
			defer adhoc.Stop()
		}
		probeRun = sim.Time(window+10) * period
	}

	run := dur
	if probeRun > run {
		run = probeRun
	}
	nw.Sim.Run(nw.Sim.Now() + run)
	flows := stop()

	// Results: per-flow achieved goodput...
	for s, g := range flows {
		f := spec.Traffic[s]
		fields := []sink.Field{
			sink.F("flow", s),
			sink.F("src", f.Src),
			sink.F("dst", f.Dst),
			sink.F("transport", f.Transport),
			sink.F("goodput_bps", g),
		}
		if plan != nil && s < len(plan.OutputRates) && plan.OutputRates[s] > 0 && goodput {
			fields = append(fields, sink.F("of_plan", g/plan.OutputRates[s]))
		}
		emit("flow", fields...)
	}
	if goodput && len(flows) > 0 {
		// cbr background flows report NaN (unmeasured) and stay out of
		// the aggregate.
		var agg float64
		measured := 0
		for _, g := range flows {
			if !math.IsNaN(g) {
				agg += g
				measured++
			}
		}
		res.summary = fmt.Sprintf("aggregate %.2f Mb/s over %d flow(s)", agg/1e6, measured)
	}

	// ... and the probe-phase estimates.
	if ps != nil {
		window := o.probeWindow(ps.Window)
		fields := []sink.Field{sink.F("link", fmt.Sprintf("%d->%d", ps.Src, ps.Dst))}
		if est, ok := rec.Estimate(ps.Src, window); ok {
			raw := rec.Trace(ps.Src, probe.ClassData, window).MeasuredLoss()
			eq6 := capacity.MaxUDP(est.Pl, rate, payload)
			fields = append(fields,
				sink.F("raw_loss", raw),
				sink.F("est_channel_loss", est.PData),
				sink.F("eq6_bps", eq6),
				sink.F("nominal_bps", capacity.NominalGoodput(rate, payload)))
			res.summary = fmt.Sprintf("est channel loss %.3f, Eq.6 %.2f Mb/s", est.PData, eq6/1e6)
		} else {
			fields = append(fields, sink.F("usable", false))
			res.summary = "probe link unusable"
		}
		if ps.MeasureTruth {
			fields = append(fields, sink.F("maxudp_bps", truthBps))
		}
		if adhoc != nil {
			fields = append(fields, sink.F("adhoc_bps", adhoc.EstimateBps()))
		}
		emit("probe", fields...)
	}
	return res
}

// objectiveFor resolves the cell's utility objective.
func objectiveFor(cs *ControllerSpec, p cellParams) optimize.Objective {
	switch p.regime {
	case 1:
		return optimize.MaxThroughput
	case 2:
		return optimize.ProportionalFair
	}
	if p.alpha != nil {
		return optimize.Objective{Alpha: *p.alpha}
	}
	switch cs.Objective {
	case "max":
		return optimize.MaxThroughput
	case "maxmin":
		return optimize.MaxMin
	default:
		return optimize.ProportionalFair
	}
}

func probePeriod(ps *ProbeSpec) sim.Time {
	if ps.PeriodMs > 0 {
		return sim.Time(ps.PeriodMs * float64(sim.Millisecond))
	}
	return 100 * sim.Millisecond
}

// startTraffic wires the traffic matrix up and returns a stop function
// that halts every source and reports per-flow goodput (bps, indexed
// like spec.Traffic), plus whether those goodputs are meaningful (false
// when no measured flows ran).
func startTraffic(spec *Spec, nw *topology.Network, ctrl *controller.Controller, plan *controller.Plan, p cellParams, payload int) (stop func() []float64, goodput bool) {
	shaped := spec.Controller != nil && spec.Controller.ApplyRC
	if p.regime == 0 {
		shaped = false
	} else if p.regime > 0 {
		shaped = true
	}

	var stops []func()
	flows := make([]float64, len(spec.Traffic))
	collectors := make([]func() float64, len(spec.Traffic))

	if ctrl != nil && shaped {
		// The plan's rate limits applied to every managed flow.
		if spec.Traffic[0].Transport == "udp" {
			sources, sinks := ctrl.ApplyUDP(plan)
			for s := range sources {
				s := s
				stops = append(stops, sources[s].Stop)
				collectors[s] = func() float64 { return sinks[s].ThroughputBps(s) }
			}
		} else {
			tcp, _ := ctrl.ApplyTCP(plan)
			for s := range tcp {
				s := s
				stops = append(stops, tcp[s].Stop)
				collectors[s] = tcp[s].GoodputBps
			}
		}
		goodput = true
	} else {
		for s, f := range spec.Traffic {
			s, f := s, f
			switch f.Transport {
			case "tcp":
				fl := transport.NewFlow(nw.Sim, nw.Nodes[f.Src], nw.Nodes[f.Dst], s)
				fl.Start()
				stops = append(stops, fl.Stop)
				collectors[s] = fl.GoodputBps
				goodput = true
			case "udp":
				snk := traffic.NewSink(nw.Sim, nw.Nodes[f.Dst])
				if f.RateBps > 0 {
					src := traffic.NewCBR(nw.Sim, nw.Nodes[f.Src], s, f.Dst, payload, f.RateBps)
					src.Start()
					stops = append(stops, src.Stop)
				} else {
					src := traffic.NewBacklogged(nw.Sim, nw.Nodes[f.Src], s, f.Dst, payload)
					src.Start()
					stops = append(stops, src.Stop)
				}
				collectors[s] = func() float64 { return snk.ThroughputBps(s) }
				goodput = true
			case "cbr":
				src := traffic.NewCBR(nw.Sim, nw.Nodes[f.Src], s, f.Dst, payload, f.RateBps)
				if f.BurstOnSec > 0 {
					startBurstCycle(nw.Sim, src,
						sim.Time(f.BurstOnSec*float64(sim.Second)),
						sim.Time(f.BurstOffSec*float64(sim.Second)))
				} else {
					src.Start()
				}
				stops = append(stops, src.Stop)
				collectors[s] = func() float64 { return math.NaN() } // background, unmeasured
			}
		}
	}

	return func() []float64 {
		for _, st := range stops {
			st()
		}
		for s, c := range collectors {
			if c != nil {
				flows[s] = c()
			}
		}
		return flows
	}, goodput
}

// startBurstCycle toggles a CBR source on/off forever (the simulation's
// end bounds it).
func startBurstCycle(s *sim.Sim, src *traffic.CBR, on, off sim.Time) {
	var cycle func()
	running := false
	cycle = func() {
		if running {
			src.Stop()
			s.Schedule(s.Now()+off, cycle)
		} else {
			src.Start()
			s.Schedule(s.Now()+on, cycle)
		}
		running = !running
	}
	cycle()
}

// buildTopology constructs the cell's network.
func buildTopology(spec *Spec, seed int64) (*topology.Network, error) {
	t := &spec.Topology
	rate, err := parseRate(t.Rate)
	if err != nil {
		return nil, err
	}
	layoutSeed := t.LayoutSeed
	if layoutSeed == 0 {
		layoutSeed = seed
	}
	var nw *topology.Network
	switch t.Kind {
	case "chain":
		nw = topology.Chain(seed, t.Nodes, t.SpacingM, rate)
	case "mesh18":
		nw = topology.Mesh18Seeded(layoutSeed, seed)
		for _, n := range nw.Nodes {
			n.SetDefaultRate(rate)
		}
	case "twolink":
		var class topology.Class
		switch t.Class {
		case "CS":
			class = topology.CS
		case "IA":
			class = topology.IA
		case "NF":
			class = topology.NF
		}
		nw = topology.TwoLink(seed, class, rate, rate).Network
	case "gateway":
		nw = topology.GatewayScenario(seed, rate)
	case "grid":
		nw = positionNetwork(spec, seed, gridPositions(t.Nodes, t.SpacingM), rate)
	case "random":
		rng := rand.New(rand.NewSource(layoutSeed))
		pos := make([]phy.Position, t.Nodes)
		for i := range pos {
			pos[i] = phy.Position{X: rng.Float64() * t.SizeM, Y: rng.Float64() * t.SizeM}
		}
		nw = positionNetwork(spec, seed, pos, rate)
	case "explicit":
		pos := make([]phy.Position, len(t.Positions))
		for i, p := range t.Positions {
			pos[i] = phy.Position{X: p.X, Y: p.Y}
		}
		nw = positionNetwork(spec, seed, pos, rate)
	default:
		return nil, fmt.Errorf("unknown topology kind %q", t.Kind)
	}
	for _, b := range t.BER {
		nw.Medium.SetBER(b.Src, b.Dst, b.BER)
	}
	return nw, nil
}

// positionNetwork builds a network straight from positions (with PHY
// overrides applied) and installs min-hop routes between every pair so
// unmanaged traffic can flow before any controller computes ETT routes.
func positionNetwork(spec *Spec, seed int64, pos []phy.Position, rate phy.Rate) *topology.Network {
	cfg := phy.DefaultConfig()
	if p := spec.PHY; p != nil {
		if p.TxPowerDBm != nil {
			cfg.TxPowerDBm = *p.TxPowerDBm
		}
		if p.FadeSigmaDB != nil {
			cfg.FadeSigmaDB = *p.FadeSigmaDB
		}
		if p.NoiseDBm != nil {
			cfg.NoiseDBm = *p.NoiseDBm
		}
	}
	nw := topology.New(seed, cfg, pos, rate)
	installMinHopRoutes(nw, rate)
	return nw
}

// gridPositions lays n nodes on a near-square grid with the given
// spacing.
func gridPositions(n int, spacing float64) []phy.Position {
	cols := 1
	for cols*cols < n {
		cols++
	}
	pos := make([]phy.Position, n)
	for i := range pos {
		pos[i] = phy.Position{
			X: float64(i%cols) * spacing,
			Y: float64(i/cols) * spacing,
		}
	}
	return pos
}

// installMinHopRoutes wires BFS shortest-hop next-hop routes over the
// links decodable at rate between every connected pair.
func installMinHopRoutes(nw *topology.Network, rate phy.Rate) {
	n := len(nw.Nodes)
	adj := make([][]int, n)
	for _, l := range nw.Links(rate) {
		adj[l.Src] = append(adj[l.Src], l.Dst)
	}
	for src := 0; src < n; src++ {
		// BFS from src; parent chain yields the first hop toward each
		// destination.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = src
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if parent[v] == -1 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		for dst := 0; dst < n; dst++ {
			if dst == src || parent[dst] == -1 {
				continue
			}
			// Walk back from dst to the neighbour of src.
			hop := dst
			for parent[hop] != src {
				hop = parent[hop]
			}
			nw.Nodes[src].SetRoute(dst, hop)
		}
	}
}
