// Package controller implements the paper's online optimization loop
// (§6.1): it runs the network-layer probing system, estimates per-link
// channel loss rates and capacities (Eq. 6), derives the two-hop conflict
// graph from probe-based neighbour discovery, computes ETT routes, builds
// the feasibility region, solves the utility maximization, and converts
// optimal output rates into input rate limits. Everything it consumes is
// measurable online at the network layer — the defining property of the
// paper's approach.
package controller

import (
	"fmt"
	"math"

	"repro/internal/core/capacity"
	"repro/internal/core/conflict"
	"repro/internal/core/feasibility"
	"repro/internal/core/optimize"
	"repro/internal/phy"
	"repro/internal/probe"
	"repro/internal/rate"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// Flow is an end-to-end demand.
type Flow struct {
	Src, Dst int
}

// ConflictModel selects how the controller classifies interference.
type ConflictModel int

// Conflict model choices (Fig. 12 compares TwoHop against measured LIR).
const (
	// TwoHopModel is the online model of §5.5 (default).
	TwoHopModel ConflictModel = iota
	// OneHopModel is the ablation that only conflicts adjacent links.
	OneHopModel
)

// Config tunes the controller.
type Config struct {
	DataRate     phy.Rate
	PayloadBytes int
	ProbePeriod  sim.Time
	ProbeWindow  int // S, in probes
	Objective    optimize.Objective
	Conflicts    ConflictModel
	// RetryLimit is the MAC retry limit used to turn channel loss into
	// residual network-layer loss for the x = y/(1-p) conversion.
	RetryLimit int
}

// DefaultConfig mirrors the paper's operating point: 0.5 s probing period,
// S = 200 probes (a ~100 s window), proportional fairness.
func DefaultConfig(rate phy.Rate) Config {
	return Config{
		DataRate:     rate,
		PayloadBytes: traffic.DefaultPayload,
		ProbePeriod:  probe.DefaultPeriod,
		ProbeWindow:  200,
		Objective:    optimize.ProportionalFair,
		Conflicts:    TwoHopModel,
		RetryLimit:   7,
	}
}

// Plan is the controller's output: the estimated model and the optimized
// rates.
type Plan struct {
	Links       []topology.Link
	Capacities  []float64 // Eq. 6 estimates per link (payload bits/s)
	LossRates   []float64 // combined channel loss per link
	Graph       *conflict.Graph
	Region      *feasibility.Region
	Routes      [][]int   // per-flow link indices
	FlowPaths   [][]int   // per-flow node paths
	OutputRates []float64 // optimized y_s
	InputRates  []float64 // x_s = y_s / (1 - p_s)
	PathLoss    []float64 // residual network-layer loss per flow
}

// Controller drives one optimization cycle over a simulated mesh.
type Controller struct {
	nw    *topology.Network
	flows []Flow
	cfg   Config

	probers   []*probe.Prober
	recorders []*probe.Recorder
}

// New prepares a controller; probers and recorders attach to every node.
func New(nw *topology.Network, flows []Flow, cfg Config) *Controller {
	c := &Controller{nw: nw, flows: flows, cfg: cfg}
	for _, n := range nw.Nodes {
		c.recorders = append(c.recorders, probe.NewRecorder(n))
		p := probe.NewProber(nw.Sim, n, cfg.DataRate, cfg.PayloadBytes)
		p.SetPeriod(cfg.ProbePeriod)
		c.probers = append(c.probers, p)
	}
	return c
}

// Probe runs the measurement phase for dur of simulated time.
func (c *Controller) Probe(dur sim.Time) {
	for _, p := range c.probers {
		p.Start()
	}
	c.nw.Sim.Run(c.nw.Sim.Now() + dur)
	for _, p := range c.probers {
		p.Stop()
	}
}

// ProbeFullWindow probes long enough to fill the configured window.
func (c *Controller) ProbeFullWindow() {
	c.Probe(sim.Time(c.cfg.ProbeWindow+5) * c.cfg.ProbePeriod)
}

// staleAfterPeriods is how many probing periods of silence mark a link
// dead for planning purposes.
const staleAfterPeriods = 20

// linkEstimates gathers per-link estimates from the probe recorders,
// discarding links whose probes have gone silent (dead links leave no
// loss marks, only silence).
func (c *Controller) linkEstimates() (links []topology.Link, est []probe.LinkEstimate) {
	now := c.nw.Sim.Now()
	maxAge := staleAfterPeriods * c.cfg.ProbePeriod
	for dst, rec := range c.recorders {
		for _, src := range rec.Senders() {
			le, ok := rec.EstimateFresh(src, c.cfg.ProbeWindow, now, maxAge)
			if !ok {
				continue
			}
			links = append(links, topology.Link{Src: src, Dst: dst})
			est = append(est, le)
		}
	}
	return links, est
}

// neighbours derives the node adjacency relation from probe reception.
func (c *Controller) neighbours(links []topology.Link) map[int][]int {
	nb := make(map[int][]int)
	seen := make(map[[2]int]bool)
	add := func(a, b int) {
		if !seen[[2]int{a, b}] {
			seen[[2]int{a, b}] = true
			nb[a] = append(nb[a], b)
		}
	}
	for _, l := range links {
		add(l.Src, l.Dst)
		add(l.Dst, l.Src)
	}
	return nb
}

// Compute runs estimation, routing, model construction and optimization.
// It installs the computed routes into the nodes.
func (c *Controller) Compute() (*Plan, error) {
	allLinks, allEst := c.linkEstimates()
	if len(allLinks) == 0 {
		return nil, fmt.Errorf("controller: no links observed; probe first")
	}

	// ETT routing over every observed link.
	metrics := make([]routing.LinkMetric, len(allLinks))
	for i, l := range allLinks {
		metrics[i] = routing.LinkMetric{
			Link:  l,
			PData: allEst[i].PData,
			PAck:  allEst[i].PAck,
			Rate:  c.rateFor(l),
		}
	}
	table := routing.BuildTable(len(c.nw.Nodes), metrics, c.cfg.PayloadBytes)
	table.Install(c.nw.Nodes)

	// Restrict the model to links actually used by the flows.
	estBy := make(map[topology.Link]probe.LinkEstimate, len(allLinks))
	for i, l := range allLinks {
		estBy[l] = allEst[i]
	}
	var links []topology.Link
	index := make(map[topology.Link]int)
	routes := make([][]int, len(c.flows))
	paths := make([][]int, len(c.flows))
	for s, f := range c.flows {
		pl := table.PathLinks(f.Src, f.Dst)
		if pl == nil {
			return nil, fmt.Errorf("controller: flow %d->%d unroutable", f.Src, f.Dst)
		}
		paths[s] = table.Path(f.Src, f.Dst)
		for _, l := range pl {
			li, ok := index[l]
			if !ok {
				li = len(links)
				index[l] = li
				links = append(links, l)
			}
			routes[s] = append(routes[s], li)
		}
	}

	// Capacities via Eq. 6 from estimated channel loss.
	caps := make([]float64, len(links))
	loss := make([]float64, len(links))
	for i, l := range links {
		le, ok := estBy[l]
		if !ok {
			return nil, fmt.Errorf("controller: no probe estimate for link %v", l)
		}
		loss[i] = le.Pl
		caps[i] = capacity.MaxUDP(le.Pl, c.rateFor(l), c.cfg.PayloadBytes)
	}

	// Conflict graph and region.
	var g *conflict.Graph
	switch c.cfg.Conflicts {
	case TwoHopModel:
		g = conflict.TwoHop(links, c.neighbours(allLinks))
	case OneHopModel:
		g = conflict.OneHop(links)
	default:
		return nil, fmt.Errorf("controller: unknown conflict model %d", c.cfg.Conflicts)
	}
	region := feasibility.Build(caps, g)

	// Optimize.
	y, err := optimize.Solve(&optimize.Problem{Region: region, Routes: routes}, c.cfg.Objective, optimize.Options{})
	if err != nil {
		return nil, fmt.Errorf("controller: optimize: %w", err)
	}

	// Input rates: x_s = y_s / (1 - p_s), with p_s the residual
	// network-layer path loss after MAC retries.
	xs := make([]float64, len(c.flows))
	ps := make([]float64, len(c.flows))
	for s := range c.flows {
		good := 1.0
		for _, li := range routes[s] {
			residual := math.Pow(loss[li], float64(c.cfg.RetryLimit+1))
			good *= 1 - residual
		}
		ps[s] = 1 - good
		if good <= 0 {
			xs[s] = y[s]
			continue
		}
		xs[s] = y[s] / good
	}

	return &Plan{
		Links:       links,
		Capacities:  caps,
		LossRates:   loss,
		Graph:       g,
		Region:      region,
		Routes:      routes,
		FlowPaths:   paths,
		OutputRates: y,
		InputRates:  xs,
	}, nil
}

func (c *Controller) rateFor(l topology.Link) phy.Rate {
	return c.nw.Nodes[l.Src].LinkRate(l.Dst)
}

// ApplyUDP starts CBR sources at the plan's input rates and returns them
// with a sink per flow.
func (c *Controller) ApplyUDP(plan *Plan) ([]*traffic.CBR, []*traffic.Sink) {
	sources := make([]*traffic.CBR, len(c.flows))
	sinks := make([]*traffic.Sink, len(c.flows))
	for s, f := range c.flows {
		sinks[s] = traffic.NewSink(c.nw.Sim, c.nw.Nodes[f.Dst])
		sources[s] = traffic.NewCBR(c.nw.Sim, c.nw.Nodes[f.Src], s, f.Dst,
			c.cfg.PayloadBytes, plan.InputRates[s])
		sources[s].Start()
	}
	return sources, sinks
}

// ApplyTCP starts TCP flows behind shapers at the plan's input rates,
// scaled down to leave air time for reverse ACKs (§6.2).
func (c *Controller) ApplyTCP(plan *Plan) ([]*transport.Flow, []*rate.Shaper) {
	scale := optimize.TCPAckScale(transport.HeaderBytes, transport.ACKBytes, transport.MSS)
	flows := make([]*transport.Flow, len(c.flows))
	shapers := make([]*rate.Shaper, len(c.flows))
	for s, f := range c.flows {
		sh := rate.NewShaper(c.nw.Sim, c.nw.Nodes[f.Src], plan.InputRates[s]*scale)
		fl := transport.NewFlow(c.nw.Sim, c.nw.Nodes[f.Src], c.nw.Nodes[f.Dst], s)
		fl.SetShaper(sh)
		flows[s] = fl
		shapers[s] = sh
		fl.Start()
	}
	return flows, shapers
}
