package scenario

import (
	"fmt"
	"io"

	"repro/internal/broadcast"
	"repro/internal/experiments/exp"
	"repro/internal/scenario/sink"
	"repro/internal/trace"
)

// Experiment adapts a declarative Spec to the exp.Experiment interface,
// which is what lets a swept scenario ride the whole shard machinery:
// `meshopt fig <scenario> -shard i/k`, `meshopt merge`, and the
// `meshopt coord` distributed coordinator all accept scenario names
// because of this adapter. A spec that delegates to a figure
// (`"figure": N`) resolves straight to the registered figure experiment.
//
// The adapter enumerates one cell per sweep point (the same row-major,
// last-axis-fastest expansion the scenario engine uses) and emits every
// record a cell produces plus one trailing "summary" record carrying
// the cell's one-line human summary. The summary record also guarantees
// the ≥1-record-per-cell contract the shard/merge validation relies on
// (see exp.RecordStreamer). `meshopt fig <name>` runs scenarios
// through this adapter, so its stream carries those summary records.
func Experiment(spec *Spec) (exp.Experiment, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Figure != 0 {
		e, ok := exp.Find(fmt.Sprintf("fig%d", spec.Figure))
		if !ok {
			return nil, fmt.Errorf("scenario %q: figure %d has no registered experiment", spec.Name, spec.Figure)
		}
		return e, nil
	}
	if spec.Broadcast != nil {
		return broadcastExperiment(spec)
	}
	return specExperiment{spec: spec}, nil
}

// broadcastExperiment adapts a "broadcast" spec kind to the
// dissemination workload: the spec's topology (frozen at the
// experiment seed via buildTopology) becomes the relay graph, and the
// spec's policy set, roots, repetitions and adversary knobs become the
// workload axes. The returned Workload is a full exp.Experiment, so
// broadcast specs shard, coordinate and cache like any figure.
func broadcastExperiment(spec *Spec) (exp.Experiment, error) {
	b := spec.Broadcast
	policies := make([]broadcast.Relay, len(b.Policies))
	for i, name := range b.Policies {
		p, err := broadcast.ParsePolicy(name, b.GossipP, b.K)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %v", spec.Name, err)
		}
		policies[i] = p
	}
	rate, err := parseRate(spec.Topology.Rate)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %v", spec.Name, err)
	}
	payload := b.PayloadBytes
	if payload <= 0 {
		payload = 1024
	}
	adv := broadcast.AdversaryConfig{MaliciousFraction: b.MaliciousFraction}
	if c := b.Churn; c != nil {
		adv.ChurnFraction = c.Fraction
		adv.ChurnStartMaxSec = c.StartMaxSec
		adv.AbsentMinSec = c.AbsentMinSec
		adv.AbsentMaxSec = c.AbsentMaxSec
	}
	n := spec.Topology.NodeCount()
	roots := b.Roots
	if len(roots) == 0 {
		roots = []int{0, n / 3, 2 * n / 3}
	}
	return &broadcast.Workload{
		Label: spec.Name,
		Desc:  spec.Description,
		Build: func(seed int64, _ int) (*broadcast.Net, error) {
			nw, err := buildTopology(spec, seed)
			if err != nil {
				return nil, err
			}
			return broadcast.NewNet(nw, rate, payload), nil
		},
		Nodes: func(exp.Scale) int { return n },
		Roots: func(int) []int { return roots },
		Reps: func(sc exp.Scale) int {
			if b.Repetitions > 0 {
				return b.Repetitions
			}
			return sc.Iterations
		},
		Policies:  policies,
		Adversary: adv,
		Trace:     spec.Trace,
	}, nil
}

type specExperiment struct{ spec *Spec }

// specCell is the per-cell payload: the sweep point plus the quick flag
// (derived from the Scale, so every process sharding the same run caps
// durations identically).
type specCell struct {
	pt    sweepPoint
	quick bool
}

func (s specExperiment) Name() string     { return s.spec.Name }
func (s specExperiment) Describe() string { return s.spec.Description }

// Cells enumerates the sweep cross product. The base seed is the
// engine's seed argument (the CLI defaults it to the spec's own seed);
// a "seed" sweep axis still overrides it per cell inside runCell.
func (s specExperiment) Cells(seed int64, sc exp.Scale) []exp.Cell {
	pts := sweepPoints(s.spec)
	quick := sc == exp.Quick()
	cells := make([]exp.Cell, len(pts))
	for i := range cells {
		cells[i] = exp.Cell{Seed: seed, Data: specCell{pt: pts[i], quick: quick}}
	}
	return cells
}

// RunCellRecords executes one sweep point and returns its records: the
// cell's link/plan/flow/probe rows, any "trace" records the spec's
// Trace flag captured, and one trailing "summary" record. An
// engine-provided capture (c.Capture, from exp.Options.Capture) takes
// precedence over the spec flag; the engine then appends the trace
// records itself.
func (s specExperiment) RunCellRecords(c exp.Cell) []sink.Record {
	d := c.Data.(specCell)
	cc, _ := c.Capture.(*trace.CellCapture)
	selfTrace := cc == nil && s.spec.Trace
	if selfTrace {
		cc = trace.NewCellCapture()
	}
	res := runCell(s.spec, Options{Quick: d.quick, Capture: cc}, c.Seed, c.Index, d.pt)
	recs := res.records
	if selfTrace {
		recs = append(recs, cc.Records()...)
	}
	return append(recs, sink.Record{
		Series: "summary",
		Fields: []sink.Field{sink.F("text", res.summary)},
	})
}

// RunCell satisfies exp.Experiment; the engine prefers RunCellRecords
// (RecordStreamer) and never calls this. It returns the cell's summary
// record.
func (s specExperiment) RunCell(c exp.Cell) sink.Record {
	recs := s.RunCellRecords(c)
	return recs[len(recs)-1]
}

// SweepResult is the reduction of a scenario sweep: row counts plus the
// per-cell one-line summaries, rebuilt identically from in-process
// records or from a merged shard stream.
type SweepResult struct {
	Scenario string
	Cells    int
	Records  int // result rows, summary records excluded
	Errors   int
	Lines    []string
}

// Print writes the per-cell summaries the scenario engine would log.
func (r *SweepResult) Print(w io.Writer) {
	fmt.Fprintf(w, "scenario %s: %d cell(s), %d record(s)", r.Scenario, r.Cells, r.Records)
	if r.Errors > 0 {
		fmt.Fprintf(w, ", %d error(s)", r.Errors)
	}
	fmt.Fprintln(w)
	for _, l := range r.Lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
}

// Reduce folds the ordered record stream into a SweepResult.
func (s specExperiment) Reduce(recs <-chan sink.Record) exp.Result {
	res := &SweepResult{Scenario: s.spec.Name}
	for rec := range recs {
		switch rec.Series {
		case "summary":
			res.Cells++
			res.Lines = append(res.Lines, fmt.Sprintf("cell %d: %s", rec.Cell, rec.Text("text")))
		case "error":
			res.Errors++
			res.Records++
		case "trace":
			// Capture output rides the stream but is not a result row.
		default:
			res.Records++
		}
	}
	return res
}
