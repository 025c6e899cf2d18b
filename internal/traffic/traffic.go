// Package traffic provides UDP-like traffic sources and sinks: backlogged
// (iperf-style saturation) sources used to measure maxUDP throughput, CBR
// sources used to inject controlled input rates, and sinks that account
// per-flow goodput and loss.
package traffic

import (
	"repro/internal/node"
	"repro/internal/sim"
)

// DefaultPayload is the UDP payload size used throughout the experiments,
// matching iperf's default datagram size.
const DefaultPayload = 1470

// Sink accumulates per-flow reception statistics at a destination node.
type Sink struct {
	s *sim.Sim

	bytes   map[int]int64 // flow -> payload bytes received
	packets map[int]int64
	first   map[int]sim.Time
	last    map[int]sim.Time
	started sim.Time
}

// NewSink attaches a sink to n's local delivery. Multiple flows may share
// one sink.
func NewSink(s *sim.Sim, n *node.Node) *Sink {
	k := &Sink{
		s:       s,
		bytes:   make(map[int]int64),
		packets: make(map[int]int64),
		first:   make(map[int]sim.Time),
		last:    make(map[int]sim.Time),
		started: s.Now(),
	}
	prev := n.Deliver
	n.Deliver = func(p *node.Packet) {
		if prev != nil {
			prev(p)
		}
		k.account(p)
	}
	return k
}

func (k *Sink) account(p *node.Packet) {
	if _, ok := k.first[p.FlowID]; !ok {
		k.first[p.FlowID] = k.s.Now()
	}
	k.last[p.FlowID] = k.s.Now()
	k.bytes[p.FlowID] += int64(p.Bytes)
	k.packets[p.FlowID]++
}

// Bytes returns payload bytes received for a flow.
func (k *Sink) Bytes(flow int) int64 { return k.bytes[flow] }

// Packets returns packets received for a flow.
func (k *Sink) Packets(flow int) int64 { return k.packets[flow] }

// ThroughputBps returns the flow's goodput in bits/s over the window from
// the last Reset (or sink creation) to now.
func (k *Sink) ThroughputBps(flow int) float64 {
	dur := (k.s.Now() - k.started).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(k.bytes[flow]) * 8 / dur
}

// Source is the common interface of traffic generators.
type Source interface {
	// Start begins generation; Stop halts it.
	Start()
	Stop()
	// SentPackets returns packets handed to the network layer.
	SentPackets() int64
}

// Backlogged keeps the sender's MAC queue non-empty, measuring the
// saturation (maxUDP) throughput of a path. It mirrors iperf with an
// unconstrained offered load.
type Backlogged struct {
	s     *sim.Sim
	n     *node.Node
	flow  int
	dst   int
	bytes int
	depth int // frames to keep in flight at the MAC

	running bool
	seq     int64
	sent    int64
}

// NewBacklogged creates a saturation source on n toward dst.
func NewBacklogged(s *sim.Sim, n *node.Node, flow, dst, payloadBytes int) *Backlogged {
	b := &Backlogged{s: s, n: n, flow: flow, dst: dst, bytes: payloadBytes, depth: 3}
	prev := n.OnSent
	n.OnSent = func(p *node.Packet, ok bool) {
		if prev != nil {
			prev(p, ok)
		}
		if b.running && p.FlowID == b.flow {
			b.fill()
		}
	}
	return b
}

// Start implements Source.
func (b *Backlogged) Start() {
	b.running = true
	b.fill()
}

// Stop implements Source.
func (b *Backlogged) Stop() { b.running = false }

// SentPackets implements Source.
func (b *Backlogged) SentPackets() int64 { return b.sent }

func (b *Backlogged) fill() {
	for b.n.MAC().QueueLen() < b.depth {
		b.seq++
		p := &node.Packet{
			FlowID: b.flow,
			Src:    b.n.ID(),
			Dst:    b.dst,
			Bytes:  b.bytes,
			Seq:    b.seq,
			SentAt: b.s.Now(),
		}
		if !b.n.Send(p) {
			return
		}
		b.sent++
	}
}

// CBR emits packets at a constant bit rate, the mechanism used to apply
// test input rates x_l inside the estimated feasibility region.
type CBR struct {
	s     *sim.Sim
	n     *node.Node
	flow  int
	dst   int
	bytes int
	rate  float64 // bits per second

	running bool
	timer   sim.Timer
	seq     int64
	sent    int64
}

// NewCBR creates a constant-bit-rate source. rateBps counts payload bits.
func NewCBR(s *sim.Sim, n *node.Node, flow, dst, payloadBytes int, rateBps float64) *CBR {
	c := &CBR{s: s, n: n, flow: flow, dst: dst, bytes: payloadBytes, rate: rateBps}
	c.timer = s.NewTimer(c.emit)
	return c
}

// Start implements Source.
func (c *CBR) Start() {
	if c.running {
		return
	}
	c.running = true
	c.emit()
}

// Stop implements Source.
func (c *CBR) Stop() {
	c.running = false
	c.timer.Stop()
}

// SentPackets implements Source.
func (c *CBR) SentPackets() int64 { return c.sent }

func (c *CBR) emit() {
	if !c.running {
		return
	}
	if c.rate <= 0 {
		// Idle. The periodic re-check is part of the simulated event
		// schedule that pinned event counts and records depend on.
		c.timer.Reset(100 * sim.Millisecond)
		return
	}
	c.seq++
	p := &node.Packet{
		FlowID: c.flow,
		Src:    c.n.ID(),
		Dst:    c.dst,
		Bytes:  c.bytes,
		Seq:    c.seq,
		SentAt: c.s.Now(),
	}
	if c.n.Send(p) {
		c.sent++
	}
	interval := sim.Time(float64(8*c.bytes) / c.rate * 1e9)
	if interval < sim.Microsecond {
		interval = sim.Microsecond
	}
	c.timer.Reset(interval)
}
