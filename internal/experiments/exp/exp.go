// Package exp is the unified experiment abstraction: every figure of the
// paper's evaluation — and any workload shaped like one — is a sweep of
// independent simulation cells reduced to a result over an ordered record
// stream.
//
// An Experiment declares its cell enumeration (Cells: inputs plus
// pre-assigned seeds, computed before any fan-out), a deterministic
// private-state cell body (RunCell), and a streaming reduction (Reduce)
// that folds records in cell order. The engine (Run) owns everything
// else: fanning cells over the parallel worker pool, normalizing and
// streaming one record per cell to a sink in deterministic cell order,
// and feeding the same ordered stream to the reduction.
//
// Because the record stream is the *only* channel between cells and the
// reduction, a run can be split across processes: Run with a Shard
// executes one residue class of the cell enumeration and streams its
// records, and Merge recombines shard streams into the byte-identical
// unsharded stream and the same reduction. The engine's determinism
// contract therefore extends across process boundaries: for any worker
// count and any shard count, merged output is bit-identical to a
// single-process run.
//
// The contract a cell body must honour is the runner's usual one:
// derive all randomness from the cell's own inputs, build private
// simulator/medium/node state, and write only to its return value.
// Cells() itself must be a pure function of (seed, Scale) so every
// shard enumerates the identical cell list.
package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/experiments/runner"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/scenario/sink"
	"repro/internal/sim"
)

// Engine metrics, labelled by experiment name. Strictly out-of-band:
// they time and count cells, never inspect or alter their records, so
// the streamed bytes are identical with the registry on or off.
var (
	metRuns = obs.Default.CounterVec("meshopt_exp_runs_total",
		"Engine runs started.", "experiment")
	metCellSeconds = obs.Default.HistogramVec("meshopt_exp_cell_seconds",
		"Wall time per cell body (capture overhead excluded).", obs.TimeBuckets(), "experiment")
	metCaptureSeconds = obs.Default.CounterVec("meshopt_exp_capture_seconds_total",
		"Wall time spent collecting capture records.", "experiment")
	metCaptureRecords = obs.Default.CounterVec("meshopt_exp_capture_records_total",
		"Capture records appended to cell streams.", "experiment")
	metCellPanics = obs.Default.Counter("meshopt_cell_panics_total",
		"Cell bodies that panicked, each failing its run with a *runner.PanicError.")
)

// Scale sets the fidelity/runtime trade-off of an experiment run.
type Scale struct {
	// PhaseDur is the duration of one activation/measurement phase
	// (the paper uses 30 s per phase).
	PhaseDur sim.Time
	// Pairs bounds how many link pairs Fig. 3/10/11-style sweeps visit.
	Pairs int
	// Configs bounds how many network configurations Figs. 7/8/12/14
	// evaluate.
	Configs int
	// Iterations is the per-configuration repeat count.
	Iterations int
	// GridN is the per-axis resolution of feasibility-region sampling.
	GridN int
	// ProbeWindow is the estimator window S in probes.
	ProbeWindow int
	// ProbePeriod is the probing period.
	ProbePeriod sim.Time
	// TrafficDur is the duration of TCP/UDP application phases.
	TrafficDur sim.Time
}

// Quick is the scale used by unit benches and tests: phases of a couple
// of simulated seconds, few repetitions.
func Quick() Scale {
	return Scale{
		PhaseDur:    2 * sim.Second,
		Pairs:       12,
		Configs:     3,
		Iterations:  2,
		GridN:       5,
		ProbeWindow: 200,
		ProbePeriod: 40 * sim.Millisecond,
		TrafficDur:  8 * sim.Second,
	}
}

// NamedScale resolves the scale names the CLI and the distributed worker
// protocol exchange ("quick", "paper"). Passing scales by name instead of
// by value keeps the cross-process contract trivial: both sides of a
// shard dispatch construct the identical Scale struct.
func NamedScale(name string) (Scale, bool) {
	switch name {
	case "quick":
		return Quick(), true
	case "paper":
		return Paper(), true
	}
	return Scale{}, false
}

// Paper approximates the paper's measurement durations (kept shorter than
// the literal 30 s phases — the simulator's variance, unlike a testbed's,
// is purely statistical and converges faster).
func Paper() Scale {
	return Scale{
		PhaseDur:    10 * sim.Second,
		Pairs:       141,
		Configs:     10,
		Iterations:  5,
		GridN:       8,
		ProbeWindow: 1280,
		ProbePeriod: 100 * sim.Millisecond,
		TrafficDur:  30 * sim.Second,
	}
}

// Cell is one independent simulation unit of an experiment: a seed
// assigned before the fan-out plus the experiment's own cell payload.
// Index is the cell's position in the experiment's enumeration; the
// engine assigns it, experiments never set it. Capture, when non-nil,
// is the engine-provided capture hook (Options.Capture) the cell body
// should attach to whatever it simulates; after the body returns, the
// engine appends the capture's records to the cell's stream.
type Cell struct {
	Index   int
	Seed    int64
	Data    any
	Capture Capture
}

// Capture is a per-cell capture handle: a cell body attaches it to its
// simulation (experiments decide how — e.g. installing it as a PHY
// tracer), and after the body returns the engine appends Records to the
// cell's record stream. The engine stamps Scenario and Cell; Series
// must be set by the capture (so reductions can filter capture series
// out).
//
// Determinism contract: Records must be a pure function of the cell's
// execution, so capture-enabled runs inherit the byte-identity
// guarantee — and the non-capture records of a capture-enabled run are
// byte-identical to a capture-off run.
type Capture interface {
	Records() []sink.Record
}

// Result is a reduced experiment outcome; every figure's result type
// satisfies it.
type Result interface {
	Print(w io.Writer)
}

// Experiment is one cell-streaming experiment. Implementations must keep
// the three methods deterministic: Cells a pure function of its inputs,
// RunCell private-state (per the runner contract), and Reduce a pure
// function of the ordered record stream — the stream is the only data
// that crosses a process boundary when a run is sharded, so anything the
// reduction needs must ride in the records.
type Experiment interface {
	// Name is the registry key and the Scenario stamped on every record.
	Name() string
	// Describe is the one-line description `meshopt list` shows.
	Describe() string
	// Cells enumerates the run's independent cells, seeds pre-assigned.
	Cells(seed int64, sc Scale) []Cell
	// RunCell executes one cell and returns its record. The engine
	// overwrites the record's Scenario and Cell and defaults its Series
	// to "cell", so implementations only populate Fields (and Series
	// when they want a non-default one). Experiments whose cells emit
	// several records implement RecordStreamer as well; the engine then
	// prefers RunCellRecords.
	RunCell(c Cell) sink.Record
	// Reduce folds the ordered record stream (one record per cell, in
	// cell order) into the experiment's result.
	Reduce(recs <-chan sink.Record) Result
}

// RecordStreamer is an optional Experiment extension for suites whose
// cells emit a variable number of records — e.g. a scenario sweep cell
// emits one row per link, flow and probe estimate. When an experiment
// implements it, the engine calls RunCellRecords instead of RunCell and
// streams every returned record (in slice order) under the cell's index.
//
// Every cell must emit at least one record: the shard/merge machinery
// validates cell coverage from the record stream alone, so a zero-record
// cell would be indistinguishable from a truncated shard. The engine
// panics on an empty return to keep that contract loud.
type RecordStreamer interface {
	RunCellRecords(c Cell) []sink.Record
}

// Shard selects one residue class of a cell enumeration: a run with
// Shard{i, k} executes exactly the cells whose index ≡ i (mod k). The
// zero value means unsharded.
type Shard struct {
	Index, Count int
}

// Enabled reports whether the shard selects a strict subset of cells.
func (s Shard) Enabled() bool { return s.Count > 0 }

func (s Shard) String() string {
	if !s.Enabled() {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// ParseShard parses an "i/k" shard spec (0 <= i < k).
func ParseShard(spec string) (Shard, error) {
	var s Shard
	if _, err := fmt.Sscanf(spec, "%d/%d", &s.Index, &s.Count); err != nil {
		return Shard{}, fmt.Errorf("exp: shard %q: want i/k (e.g. 0/2)", spec)
	}
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return Shard{}, fmt.Errorf("exp: shard %q: need 0 <= i < k", spec)
	}
	return s, nil
}

// Options tunes an engine run.
type Options struct {
	// Sink receives the streamed per-cell records; nil discards them.
	Sink sink.Sink
	// Shard restricts the run to one residue class of cells. A sharded
	// run streams records but skips the reduction (Run returns a nil
	// Result); Merge recombines shard streams and reduces.
	Shard Shard
	// FromCell skips cells with Index < FromCell — the resume path of a
	// serving layer whose checkpoint already holds the stream's prefix.
	// Like sharded runs, a resumed run streams records but skips the
	// reduction (the prefix records are not in this run's stream, so a
	// partial reduction would be wrong).
	FromCell int
	// Progress, when set, observes streaming progress: done counts the
	// cells this run has completed (their records already handed to the
	// sink) and total the cells this run will execute. It is called on
	// the streaming goroutine, serialized, in cell order.
	Progress func(done, total int)
	// Context, when set, makes the run cancellable: cancelling it stops
	// the fan-out at the next cell boundary instead of waiting out the
	// whole sweep. The records streamed before the cut are a gapless
	// cell-order prefix of the full run's stream — a valid, resumable
	// checkpoint — and Run returns an error wrapping ctx's cause. Nil
	// means the run cannot be cancelled.
	Context context.Context
	// Capture, when set, is called once per executing cell (on that
	// cell's worker goroutine, so the factory must be safe for
	// concurrent calls) and the returned capture rides the cell through
	// its body; its records are appended after the cell's own records.
	// Capture records are never fed to the reduction (Reduction drops
	// them) — Reduce sees exactly the capture-off stream.
	Capture func(c Cell) Capture
}

// Run executes an experiment: enumerate cells, fan them over the worker
// pool, stream one normalized record per cell to the sink in cell order,
// and reduce the same stream. The returned Result is nil for sharded
// runs (a partial reduction would be meaningless); the error is the
// first sink write failure or the cancellation cause, if any.
//
// A sink write failure aborts the fan-out at the next cell boundary —
// there is no point computing cells whose records can no longer land
// anywhere — which is also what stops an in-process distributed worker
// promptly when its output pipe is closed from the coordinator side.
//
// Determinism: the record stream — and therefore the reduction — is
// bit-identical for any worker count, and the concatenation (by Merge)
// of all k shard streams is bit-identical to the unsharded stream. A
// cancelled run's stream is a bit-identical prefix of the full stream.
func Run(e Experiment, seed int64, sc Scale, o Options) (Result, error) {
	cells := e.Cells(seed, sc)
	for i := range cells {
		cells[i].Index = i
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// A private cancel lets the sink-error path abort the fan-out
	// without requiring the caller to have provided a context.
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	// When the caller's context carries a trace span, the whole engine
	// run nests under an "exp.run" child and the fan-out's per-cell spans
	// nest under that. Untraced contexts leave runSpan nil and every span
	// call below no-ops.
	runSpan := span.FromContext(ctx).Child("exp.run",
		span.Str("experiment", e.Name()),
		span.Str("shard", o.Shard.String()),
		span.Int("from_cell", o.FromCell))
	defer runSpan.End()
	runCtx = span.NewContext(runCtx, runSpan)
	snk := o.Sink
	if snk == nil {
		snk = sink.Discard
	}
	streamer, multi := e.(RecordStreamer)
	observing := obs.Default.Enabled()
	cellSeconds := metCellSeconds.With(e.Name())
	captureSeconds := metCaptureSeconds.With(e.Name())
	captureRecords := metCaptureRecords.With(e.Name())
	metRuns.With(e.Name()).Inc()
	runCell := func(_ int, c Cell) []sink.Record {
		if o.Capture != nil {
			c.Capture = o.Capture(c)
		}
		var bodyStart time.Time
		if observing {
			bodyStart = time.Now()
		}
		var recs []sink.Record
		if multi {
			recs = streamer.RunCellRecords(c)
			if len(recs) == 0 {
				panic(fmt.Sprintf("exp: %s cell %d emitted no records (RecordStreamer cells must emit at least one)",
					e.Name(), c.Index))
			}
		} else {
			recs = []sink.Record{e.RunCell(c)}
		}
		if observing {
			cellSeconds.Observe(time.Since(bodyStart).Seconds())
		}
		own := len(recs)
		if c.Capture != nil {
			var capStart time.Time
			if observing {
				capStart = time.Now()
			}
			recs = append(recs, c.Capture.Records()...)
			if observing {
				captureSeconds.Add(time.Since(capStart).Seconds())
				captureRecords.Add(float64(len(recs) - own))
			}
		}
		for i := range recs {
			recs[i].Scenario = e.Name()
			recs[i].Cell = c.Index
			if recs[i].Series == "" {
				recs[i].Series = "cell"
			}
		}
		return recs
	}

	progress := o.Progress
	if progress == nil {
		progress = func(int, int) {}
	}

	if o.Shard.Enabled() || o.FromCell > 0 {
		var mine []Cell
		for _, c := range cells {
			if o.Shard.Enabled() && c.Index%o.Shard.Count != o.Shard.Index {
				continue
			}
			if c.Index < o.FromCell {
				continue
			}
			mine = append(mine, c)
		}
		var sinkErr error
		done := 0
		runErr := runner.StreamCtx(runCtx, runner.Workers(), mine, runCell, func(_ int, recs []sink.Record) {
			for _, rec := range recs {
				if sinkErr == nil {
					if sinkErr = snk.Write(rec); sinkErr != nil {
						stop()
					}
				}
			}
			done++
			progress(done, len(mine))
		})
		if sinkErr != nil {
			return nil, sinkErr
		}
		if runErr != nil {
			return nil, runFailure(runCtx, e.Name(), runErr, done, len(mine))
		}
		return nil, nil
	}

	// The reduction consumes the stream concurrently with the sink; both
	// see records in cell order. The deferred Finish keeps the reducer
	// goroutine from leaking if emit panics mid-run.
	reduceSpan := runSpan.Child("reduce")
	red := NewReduction(e)
	defer red.Finish()
	var sinkErr error
	cellsDone := 0
	runErr := runner.StreamCtx(runCtx, runner.Workers(), cells, runCell, func(_ int, recs []sink.Record) {
		for _, rec := range recs {
			if sinkErr == nil {
				if sinkErr = snk.Write(rec); sinkErr != nil {
					stop()
				}
			}
			red.Feed(rec)
		}
		cellsDone++
		progress(cellsDone, len(cells))
	})
	res, err := red.Finish()
	reduceSpan.End()
	switch {
	case sinkErr != nil:
		return nil, sinkErr
	case runErr != nil:
		// A partial reduction would be wrong; only the streamed prefix
		// (a valid resume checkpoint) survives a cancelled run.
		return nil, runFailure(runCtx, e.Name(), runErr, cellsDone, len(cells))
	}
	return res, err
}

// runFailure explains why the fan-out stopped after done of total
// cells: a cell panic (the *runner.PanicError stays reachable through
// errors.As) or cancellation.
func runFailure(ctx context.Context, name string, err error, done, total int) error {
	var pe *runner.PanicError
	if errors.As(err, &pe) {
		metCellPanics.Inc()
		return fmt.Errorf("exp: %s: %w", name, err)
	}
	return fmt.Errorf("exp: %s cancelled after %d/%d cells: %w", name, done, total, context.Cause(ctx))
}
