// Package trace is the capture/replay subsystem: per-link delivery
// decisions recorded as first-class records and replayed through the
// PHY's loss-decision interface.
//
// Capture is a phy.Tracer that appends every delivery decision the
// medium makes (src, dst, seq, sim time, rate, frame bytes,
// delivered/lost + cause) to an in-memory collector. Collected events
// serialize through sink.Record — one "trace"-series record per
// directed link, in first-appearance order — so captured traces ride
// the ordinary JSONL stream and inherit the shard/merge/coord/steal/
// serve byte-identity contract for free.
//
// Replay is a phy.Channel built from a decoded trace: instead of
// drawing the Bernoulli channel-error process it returns the recorded
// outcome for each (src, dst, seq) decision, mirroring the rng draws
// the stochastic channel would have consumed so every other consumer
// of the stream (fade draws, MAC backoff) stays aligned. Divergence —
// a frame reaching the channel decision that the recording says never
// did — is counted and reported loudly through Err.
package trace

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/phy"
	"repro/internal/scenario/sink"
	"repro/internal/sim"
)

// Series is the record series name trace records are emitted under.
const Series = "trace"

// Link identifies one directed link (or, for broadcast frames, one
// src->observer pair).
type Link struct {
	Src, Dst int
}

func (l Link) String() string { return fmt.Sprintf("%d->%d", l.Src, l.Dst) }

// Outcome codes, as stored in trace records. They mirror phy.LossCause
// with 0 = delivered.
const (
	OutDelivered = int(phy.CauseNone)
	OutSINR      = int(phy.CauseSINR)
	OutChannel   = int(phy.CauseChannel)
	OutUnlocked  = int(phy.CauseUnlocked)
)

func outName(out int) string { return phy.LossCause(out).String() }

// Event is one recorded per-link delivery decision. All fields fit in
// float64 without rounding (values stay far below 2^53), so an event
// round-trips the JSONL wire format exactly.
type Event struct {
	T     sim.Time
	Seq   int64
	Kind  int
	Rate  int
	Bytes int
	Out   int
}

// Collector accumulates decisions grouped per directed link, preserving
// both the per-link event order and the link first-appearance order.
// It implements phy.Tracer. Not safe for concurrent use; each simulated
// cell owns its own collector.
type Collector struct {
	order  []Link
	byLink map[Link][]Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byLink: make(map[Link][]Event)}
}

// Decide implements phy.Tracer.
func (c *Collector) Decide(d phy.Decision) {
	c.Add(Link{Src: d.Src, Dst: d.Dst}, Event{
		T:     d.T,
		Seq:   d.Seq,
		Kind:  int(d.Kind),
		Rate:  int(d.Rate),
		Bytes: d.Bytes,
		Out:   causeOut(d),
	})
}

func causeOut(d phy.Decision) int {
	if d.Delivered {
		return OutDelivered
	}
	return int(d.Cause)
}

// Add appends one event to a link's series.
func (c *Collector) Add(l Link, e Event) {
	if _, ok := c.byLink[l]; !ok {
		c.order = append(c.order, l)
	}
	c.byLink[l] = append(c.byLink[l], e)
}

// Links returns the collected links in first-appearance order.
func (c *Collector) Links() []Link { return c.order }

// Events returns the event series for one link, in decision order.
func (c *Collector) Events(l Link) []Event { return c.byLink[l] }

// CellTrace is one cell's decoded (or collected) trace: per-link event
// series in link order.
type CellTrace = Collector

// CellCapture is the per-cell capture handle the experiment engine
// hands to a running cell (exp.Options.Capture). It is a phy.Tracer —
// experiments that own a phy.Medium install it with Install — and an
// exp.Capture: after the cell runs, Records renders the collected
// events as "trace"-series records, one per link.
//
// A CellCapture may also carry a Replay; Install then replaces the
// medium's stochastic channel with the recorded trace, which is how
// `meshopt trace replay` re-runs a workload against its recording.
type CellCapture struct {
	col    *Collector
	replay *Replay
}

// NewCellCapture returns a capture with an empty collector.
func NewCellCapture() *CellCapture {
	return &CellCapture{col: NewCollector()}
}

// NewCellCaptureReplay returns a capture that also installs r as the
// medium's channel. r may be nil (plain capture).
func NewCellCaptureReplay(r *Replay) *CellCapture {
	return &CellCapture{col: NewCollector(), replay: r}
}

// Decide implements phy.Tracer.
func (c *CellCapture) Decide(d phy.Decision) { c.col.Decide(d) }

// Install attaches the capture to a medium: the tracer always, and the
// replay channel when one is carried.
func (c *CellCapture) Install(m *phy.Medium) {
	m.SetTracer(c)
	if c.replay != nil {
		m.SetChannel(c.replay)
	}
}

// Replay returns the carried replay, or nil.
func (c *CellCapture) Replay() *Replay { return c.replay }

// Collector returns the capture's collector (the freshly captured
// events).
func (c *CellCapture) Collector() *Collector { return c.col }

// Adopt copies an externally collected event series for one link into
// this capture. Experiments with a phase shared across cells (fig10's
// probe sim) collect once into a shared collector and each cell adopts
// only its own link's events, which keeps record placement independent
// of which cell happened to build the shared phase.
func (c *CellCapture) Adopt(l Link, events []Event) {
	for _, e := range events {
		c.col.Add(l, e)
	}
}

// Records implements exp.Capture: the collected events as one
// "trace"-series record per link, in first-appearance order. The
// engine stamps Scenario and Cell.
func (c *CellCapture) Records() []sink.Record {
	recs := make([]sink.Record, 0, len(c.col.order))
	for _, l := range c.col.order {
		events := c.col.byLink[l]
		n := len(events)
		seq := make([]float64, n)
		t := make([]float64, n)
		kind := make([]float64, n)
		rate := make([]float64, n)
		bytes := make([]float64, n)
		out := make([]float64, n)
		for i, e := range events {
			seq[i] = float64(e.Seq)
			t[i] = float64(e.T)
			kind[i] = float64(e.Kind)
			rate[i] = float64(e.Rate)
			bytes[i] = float64(e.Bytes)
			out[i] = float64(e.Out)
		}
		recs = append(recs, sink.Record{
			Series: Series,
			Fields: []sink.Field{
				sink.F("src", l.Src),
				sink.F("dst", l.Dst),
				sink.F("n", n),
				sink.F("seq", seq),
				sink.F("t", t),
				sink.F("kind", kind),
				sink.F("rate", rate),
				sink.F("bytes", bytes),
				sink.F("out", out),
			},
		})
	}
	return recs
}

// Trace is a decoded multi-cell trace: cell index -> that cell's
// per-link events.
type Trace map[int]*CellTrace

// Cells returns the trace's cell indices in ascending order.
func (tr Trace) Cells() []int {
	cells := make([]int, 0, len(tr))
	for c := range tr {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	return cells
}

// Decode rebuilds a Trace from a record stream, keeping only
// "trace"-series records. Per-link event order and per-cell link order
// are preserved; the global cross-link decision interleaving is not
// (the replay queues and the diff are both per-link, so it is not
// needed).
func Decode(records []sink.Record) (Trace, error) {
	tr := Trace{}
	for _, rec := range records {
		if rec.Series != Series {
			continue
		}
		l := Link{Src: rec.Int("src"), Dst: rec.Int("dst")}
		n := rec.Int("n")
		seq := rec.Floats("seq")
		t := rec.Floats("t")
		kind := rec.Floats("kind")
		rate := rec.Floats("rate")
		bytes := rec.Floats("bytes")
		out := rec.Floats("out")
		if len(seq) != n || len(t) != n || len(kind) != n || len(rate) != n || len(bytes) != n || len(out) != n {
			return nil, fmt.Errorf("trace: cell %d link %s: array lengths disagree with n=%d", rec.Cell, l, n)
		}
		ct := tr[rec.Cell]
		if ct == nil {
			ct = NewCollector()
			tr[rec.Cell] = ct
		}
		for i := 0; i < n; i++ {
			ct.Add(l, Event{
				T:     sim.Time(t[i]),
				Seq:   int64(seq[i]),
				Kind:  int(kind[i]),
				Rate:  int(rate[i]),
				Bytes: int(bytes[i]),
				Out:   int(out[i]),
			})
		}
	}
	return tr, nil
}

// CaptureSet is a concurrency-safe registry of per-cell captures; the
// `trace` CLI's Options.Capture factories use it to keep a handle on
// every capture the engine hands out (cells run on parallel workers).
type CaptureSet struct {
	mu     sync.Mutex
	byCell map[int]*CellCapture
}

// NewCaptureSet returns an empty set.
func NewCaptureSet() *CaptureSet {
	return &CaptureSet{byCell: make(map[int]*CellCapture)}
}

// Add registers a cell's capture and returns it.
func (s *CaptureSet) Add(cell int, c *CellCapture) *CellCapture {
	s.mu.Lock()
	s.byCell[cell] = c
	s.mu.Unlock()
	return c
}

// Captures returns a snapshot of the registered captures, keyed by
// cell.
func (s *CaptureSet) Captures() map[int]*CellCapture {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]*CellCapture, len(s.byCell))
	for cell, c := range s.byCell {
		out[cell] = c
	}
	return out
}
