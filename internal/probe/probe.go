// Package probe implements the paper's network-layer probing system
// (§5.2, §6.1): every node periodically broadcasts two probe classes —
// one emulating DATA frames (data rate, data size) and one emulating ACK
// frames (1 Mb/s, ACK size). Receivers record per-sender reception traces
// from which the channel-loss estimator recovers pDATA and pACK.
//
// The package also implements Ad Hoc Probe (Chen et al.), the packet-pair
// path-capacity baseline the paper compares against in Fig. 11.
package probe

import (
	"math/rand"

	"repro/internal/core/capacity"
	"repro/internal/node"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Class distinguishes the two probe kinds.
type Class int

// Probe classes.
const (
	// ClassData emulates DATA packets: sent at the link data rate with
	// the data payload size.
	ClassData Class = iota
	// ClassAck emulates ACK packets: sent at 1 Mb/s with the ACK size.
	ClassAck
	numClasses
)

// Payload is the probe frame payload. Sent carries the transmission
// timestamp so receivers can detect stale traces (a link whose probes all
// die leaves no loss marks — only its silence gives it away).
type Payload struct {
	Class Class
	Seq   int64
	Sent  sim.Time
}

// DefaultPeriod is the probing period (0.5 s in the paper's system).
const DefaultPeriod = 500 * sim.Millisecond

// Prober periodically broadcasts both probe classes from one node. Probe
// timers are jittered (uniformly within ±25% of the period) so that
// probers on hidden nodes do not synchronize and systematically collide.
type Prober struct {
	s      *sim.Sim
	n      *node.Node
	period sim.Time
	rng    *rand.Rand

	dataRate  phy.Rate
	dataBytes int

	running bool
	timer   sim.Timer
	seq     [numClasses]int64
	sent    [numClasses]int64
}

// NewProber creates a prober for n. dataRate and dataBytes configure the
// DATA-emulating class.
func NewProber(s *sim.Sim, n *node.Node, dataRate phy.Rate, dataBytes int) *Prober {
	p := &Prober{
		s: s, n: n,
		period:    DefaultPeriod,
		rng:       s.NewStream(),
		dataRate:  dataRate,
		dataBytes: dataBytes,
	}
	p.timer = s.NewTimer(p.tick)
	return p
}

// SetPeriod changes the probing period (before Start).
func (p *Prober) SetPeriod(d sim.Time) { p.period = d }

// Start begins periodic probing.
func (p *Prober) Start() {
	if p.running {
		return
	}
	p.running = true
	p.tick()
}

// Stop halts probing.
func (p *Prober) Stop() {
	p.running = false
	p.timer.Stop()
}

func (p *Prober) tick() {
	if !p.running {
		return
	}
	now := p.s.Now()
	p.seq[ClassData]++
	if p.n.SendProbe(p.dataBytes, p.dataRate, &Payload{Class: ClassData, Seq: p.seq[ClassData], Sent: now}) {
		p.sent[ClassData]++
	}
	p.seq[ClassAck]++
	if p.n.SendProbe(phy.ACKBytes, phy.Rate1, &Payload{Class: ClassAck, Seq: p.seq[ClassAck], Sent: now}) {
		p.sent[ClassAck]++
	}
	jitter := 0.75 + 0.5*p.rng.Float64()
	p.timer.Reset(sim.Time(float64(p.period) * jitter))
}

// traceBufCap bounds how much reception history a recorder keeps per
// sender and class.
const traceBufCap = 4096

// seqTrace records which probe sequence numbers arrived.
type seqTrace struct {
	max       int64          // highest seq observed
	seen      map[int64]bool // received seqs within the retained window
	lastHeard sim.Time       // send timestamp of the newest probe heard
}

func (t *seqTrace) mark(seq int64, at sim.Time) {
	if t.seen == nil {
		t.seen = make(map[int64]bool)
	}
	t.seen[seq] = true
	if at > t.lastHeard {
		t.lastHeard = at
	}
	if seq > t.max {
		t.max = seq
	}
	if old := t.max - traceBufCap; old > 0 {
		delete(t.seen, old)
	}
}

// trace materializes the last s positions ending at the highest observed
// seq: true = lost.
func (t *seqTrace) trace(s int) capacity.LossTrace {
	if t.max == 0 {
		return nil
	}
	start := t.max - int64(s) + 1
	if start < 1 {
		start = 1
	}
	out := make(capacity.LossTrace, 0, t.max-start+1)
	for q := start; q <= t.max; q++ {
		out = append(out, !t.seen[q])
	}
	return out
}

// Recorder collects probe receptions at one node.
type Recorder struct {
	node   *node.Node
	traces map[int]*[numClasses]seqTrace // sender -> per-class trace
}

// NewRecorder attaches a recorder to n's probe delivery.
func NewRecorder(n *node.Node) *Recorder {
	r := &Recorder{node: n, traces: make(map[int]*[numClasses]seqTrace)}
	prev := n.OnProbe
	n.OnProbe = func(f *phy.Frame) {
		if prev != nil {
			prev(f)
		}
		pl, ok := f.Payload.(*Payload)
		if !ok {
			return
		}
		tr := r.traces[f.Src]
		if tr == nil {
			tr = &[numClasses]seqTrace{}
			r.traces[f.Src] = tr
		}
		tr[pl.Class].mark(pl.Seq, pl.Sent)
	}
	return r
}

// Senders lists the node ids this recorder has heard probes from — the
// neighbour set used by the two-hop interference model and routing.
func (r *Recorder) Senders() []int {
	out := make([]int, 0, len(r.traces))
	for id := range r.traces {
		out = append(out, id)
	}
	return out
}

// Trace returns the last s probe outcomes from sender for class c.
func (r *Recorder) Trace(sender int, c Class, s int) capacity.LossTrace {
	tr := r.traces[sender]
	if tr == nil {
		return nil
	}
	return tr[c].trace(s)
}

// LinkEstimate runs the channel-loss estimator on both probe classes of
// the link sender->this node and combines them into the Eq. 6 inputs.
type LinkEstimate struct {
	PData, PAck float64 // estimated channel loss rates per class
	Pl          float64 // combined per-attempt loss (Eq. 6 input)
}

// minTraceSpan is the minimum per-class trace length for a usable link
// estimate. A link whose DATA-emulating probes never decode (for example
// one that only carries the more robust 1 Mb/s ACK probes) produces an
// empty DATA trace and must be rejected rather than read as lossless.
const minTraceSpan = 2 * capacity.DefaultWmin

// LastHeard returns the send timestamp of the newest probe heard from
// sender on class c (zero if never).
func (r *Recorder) LastHeard(sender int, c Class) sim.Time {
	tr := r.traces[sender]
	if tr == nil {
		return 0
	}
	return tr[c].lastHeard
}

// EstimateFresh is Estimate with a staleness guard: a link whose newest
// DATA probe is older than maxAge is reported unusable. A completely dead
// link produces no loss marks at all — its trace looks clean while its
// silence grows — so freshness, not loss rate, is what reveals it.
func (r *Recorder) EstimateFresh(sender, s int, now, maxAge sim.Time) (LinkEstimate, bool) {
	if maxAge > 0 && now-r.LastHeard(sender, ClassData) > maxAge {
		return LinkEstimate{}, false
	}
	return r.Estimate(sender, s)
}

// Estimate produces the link estimate over a probing window of s probes.
// ok is false when too few probes of either class were heard from sender
// for the link to be considered usable at its data rate.
func (r *Recorder) Estimate(sender int, s int) (LinkEstimate, bool) {
	tr := r.traces[sender]
	if tr == nil {
		return LinkEstimate{}, false
	}
	dataTrace := tr[ClassData].trace(s)
	ackTrace := tr[ClassAck].trace(s)
	if len(dataTrace) < minTraceSpan || len(ackTrace) < minTraceSpan {
		return LinkEstimate{}, false
	}
	data := capacity.EstimateChannelLoss(dataTrace, capacity.DefaultWmin)
	ack := capacity.EstimateChannelLoss(ackTrace, capacity.DefaultWmin)
	return LinkEstimate{
		PData: data.Pch,
		PAck:  ack.Pch,
		Pl:    capacity.CombineLossRates(data.Pch, ack.Pch),
	}, true
}
