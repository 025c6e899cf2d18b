package broadcast

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/experiments/exp"
	"repro/internal/phy"
	"repro/internal/scenario/sink"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// defaultPayload is the broadcast message size in bytes.
const defaultPayload = 1024

// latencyQuantiles are the per-cell first-receipt latency quantiles
// emitted as "lat" records.
var latencyQuantiles = []float64{0.5, 0.9, 0.99}

// Workload adapts a broadcast dissemination sweep to exp.Experiment:
// one cell per (root × policy × repetition) tuple, so the family
// inherits the engine's parallel fan-out, sharding, coordination and
// caching without any broadcast-specific distribution code. Both the
// registered "broadcast" experiment (Default) and the scenario
// adapter's "broadcast" spec kind construct one of these.
type Workload struct {
	// Label is the experiment name; Desc its one-line description.
	Label string
	Desc  string
	// Build constructs the frozen dissemination graph for the
	// experiment seed; it must be a pure function of its arguments.
	Build func(seed int64, n int) (*Net, error)
	// Nodes sizes the network at a given scale; Roots picks the
	// injection points for an n-node network; Reps is the
	// per-(root,policy) repetition count.
	Nodes func(sc exp.Scale) int
	Roots func(n int) []int
	Reps  func(sc exp.Scale) int
	// Policies is the relay policy set swept per root.
	Policies []Relay
	// Adversary selects the misbehaving fraction of each run.
	Adversary AdversaryConfig
	// Trace turns on per-hop delivery capture for every cell when the
	// engine supplies no capture of its own (the scenario spec's
	// "trace" flag); trace records are appended after the cell's rows.
	Trace bool
}

// bcCell is the per-cell payload: indices into the sweep axes plus the
// node count (frozen at enumeration so RunCell needs no Scale).
type bcCell struct {
	root   int
	policy int // index into Policies
	rep    int
	nodes  int
}

// Name implements exp.Experiment.
func (w *Workload) Name() string { return w.Label }

// Describe implements exp.Experiment.
func (w *Workload) Describe() string { return w.Desc }

// Cells enumerates the (root × policy × rep) cross product, roots
// outermost and repetitions fastest. It is a pure function of
// (seed, sc), as the shard contract requires.
func (w *Workload) Cells(seed int64, sc exp.Scale) []exp.Cell {
	n := w.Nodes(sc)
	roots := w.Roots(n)
	reps := w.Reps(sc)
	cells := make([]exp.Cell, 0, len(roots)*len(w.Policies)*reps)
	for _, root := range roots {
		for p := range w.Policies {
			for rep := 0; rep < reps; rep++ {
				cells = append(cells, exp.Cell{
					Seed: seed,
					Data: bcCell{root: root, policy: p, rep: rep, nodes: n},
				})
			}
		}
	}
	return cells
}

// RunCellRecords executes one dissemination and returns its records:
// one "run" record with the cell's metrics, then the first-receipt
// latency quantiles as "lat" records. The run record guarantees the
// ≥1-record-per-cell contract.
func (w *Workload) RunCellRecords(c exp.Cell) []sink.Record {
	bc := c.Data.(bcCell)
	pol := w.Policies[bc.policy]
	net, err := w.Build(c.Seed, bc.nodes)
	if err != nil {
		return []sink.Record{{
			Series: "error",
			Fields: []sink.Field{sink.F("error", err.Error())},
		}}
	}
	// The run seed decorrelates the axes: every (root, policy, rep)
	// tuple rolls private loss coins, jitter and adversary flags.
	cs := mix(c.Seed, int64(bc.root), int64(bc.policy), int64(bc.rep))
	flags := DeriveFlags(cs, net.N, w.Adversary)
	cc, _ := c.Capture.(*trace.CellCapture)
	selfTrace := cc == nil && w.Trace
	if selfTrace {
		cc = trace.NewCellCapture()
	}
	var tap phy.Tracer
	var ch Channel
	if cc != nil {
		tap = cc
		if r := cc.Replay(); r != nil {
			ch = r
		}
	}
	m := Run(net, bc.root, pol, flags, cs, tap, ch)
	recs := []sink.Record{{
		Series: "run",
		Fields: []sink.Field{
			sink.F("root", bc.root),
			sink.F("policy", pol.Name()),
			sink.F("rep", bc.rep),
			sink.F("nodes", m.Nodes),
			sink.F("reached", m.Reached),
			sink.F("coverage", m.Coverage),
			sink.F("deliveries", m.Deliveries),
			sink.F("dup_rate", m.DupRate),
			sink.F("depth", m.Depth),
		},
	}}
	if len(m.Latencies) > 0 {
		cdf := stats.NewCDF(m.Latencies)
		recs = append(recs, cdf.QuantileSeries(w.Label, "lat", latencyQuantiles)...)
	}
	if selfTrace {
		recs = append(recs, cc.Records()...)
	}
	return recs
}

// RunCell satisfies exp.Experiment; the engine prefers RunCellRecords
// and never calls this.
func (w *Workload) RunCell(c exp.Cell) sink.Record {
	return w.RunCellRecords(c)[0]
}

// PolicySummary aggregates the runs of one relay policy.
type PolicySummary struct {
	Policy         string
	Runs           int
	MeanCoverage   float64
	MeanDupRate    float64
	MeanDeliveries float64
	MaxDepth       int
}

// Summary is the reduction of a broadcast sweep: per-policy aggregates
// in first-appearance (cell) order.
type Summary struct {
	Scenario string
	Cells    int
	Errors   int
	ByPolicy []PolicySummary
}

// Print implements exp.Result.
func (s *Summary) Print(w io.Writer) {
	fmt.Fprintf(w, "broadcast %s: %d cell(s)", s.Scenario, s.Cells)
	if s.Errors > 0 {
		fmt.Fprintf(w, ", %d error(s)", s.Errors)
	}
	fmt.Fprintln(w)
	for _, p := range s.ByPolicy {
		fmt.Fprintf(w, "  %-14s coverage %.3f  dup-rate %.3f  deliveries %.1f  max depth %d  (%d run(s))\n",
			p.Policy, p.MeanCoverage, p.MeanDupRate, p.MeanDeliveries, p.MaxDepth, p.Runs)
	}
}

// Reduce folds the ordered record stream into per-policy means. The
// stream arrives in cell order, so first-appearance policy order is
// deterministic (no map iteration in the output path).
func (w *Workload) Reduce(recs <-chan sink.Record) exp.Result {
	res := &Summary{Scenario: w.Label}
	idx := map[string]int{}
	for rec := range recs {
		switch rec.Series {
		case "run":
			res.Cells++
			name := rec.Text("policy")
			i, ok := idx[name]
			if !ok {
				i = len(res.ByPolicy)
				idx[name] = i
				res.ByPolicy = append(res.ByPolicy, PolicySummary{Policy: name})
			}
			p := &res.ByPolicy[i]
			p.Runs++
			p.MeanCoverage += rec.Float("coverage")
			p.MeanDupRate += rec.Float("dup_rate")
			p.MeanDeliveries += rec.Float("deliveries")
			if d := rec.Int("depth"); d > p.MaxDepth {
				p.MaxDepth = d
			}
		case "error":
			res.Cells++
			res.Errors++
		}
	}
	for i := range res.ByPolicy {
		p := &res.ByPolicy[i]
		if p.Runs > 0 {
			p.MeanCoverage /= float64(p.Runs)
			p.MeanDupRate /= float64(p.Runs)
			p.MeanDeliveries /= float64(p.Runs)
		}
	}
	return res
}

// Default is the registered "broadcast" experiment: a random layout
// sized by the scale's iteration count, three spread roots, the four
// built-in policies, and a 10%/10% malicious/churn adversary mix.
func Default() *Workload {
	return &Workload{
		Label: "broadcast",
		Desc:  "broadcast dissemination: (root x relay policy x rep) cells over a random layout with malicious and churning nodes",
		Build: func(seed int64, n int) (*Net, error) { return randomNet(seed, n), nil },
		Nodes: func(sc exp.Scale) int { return 8*sc.Iterations + 8 },
		Roots: func(n int) []int { return []int{0, n / 3, 2 * n / 3} },
		Reps:  func(sc exp.Scale) int { return sc.Iterations },
		Policies: []Relay{
			Flood{},
			Gossip{P: 0.7},
			KRandom{K: 3},
			Tree{},
		},
		Adversary: AdversaryConfig{MaliciousFraction: 0.1, ChurnFraction: 0.1},
	}
}

// randomNet freezes the dissemination graph of an n-node uniform
// random layout whose side scales with sqrt(n), keeping node density
// (hence typical degree) roughly constant across scales.
func randomNet(seed int64, n int) *Net {
	rng := rand.New(rand.NewSource(mix(seed, 0x6c61796f7574)))
	side := math.Sqrt(float64(n)) * 60
	pos := make([]phy.Position, n)
	for i := range pos {
		pos[i] = phy.Position{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	nw := topology.New(seed, phy.DefaultConfig(), pos, phy.Rate11)
	return NewNet(nw, phy.Rate11, defaultPayload)
}
