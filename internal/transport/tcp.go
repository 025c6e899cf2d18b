// Package transport implements a miniature window-based TCP over the mesh
// network layer: slow start, AIMD congestion avoidance, duplicate-ACK fast
// retransmit, and Jacobson/Karels retransmission timeouts, with per-packet
// cumulative ACKs flowing back through the mesh.
//
// It reproduces the transport behaviours the paper's §6 evaluation depends
// on — notably upstream starvation of multi-hop flows when TCP ACKs
// collide with data (Shi et al.), and the stabilizing effect of
// network-layer rate limiting — without byte-level TCP fidelity.
package transport

import (
	"repro/internal/node"
	"repro/internal/rate"
	"repro/internal/sim"
)

// Segment sizes (bytes). MSS mirrors Ethernet-framed TCP; ACKBytes covers
// a TCP/IP ACK.
const (
	MSS      = 1460
	ACKBytes = 40
	// HeaderBytes is the IP+TCP header size, used by the paper's ACK
	// airtime scale factor.
	HeaderBytes = 52
)

// segment is the transport payload carried inside node packets.
type segment struct {
	flow *Flow
	ack  bool
	seq  int64 // data: segment index; ack: cumulative next expected
}

// Flow is a one-direction TCP connection between two mesh nodes.
type Flow struct {
	s    *sim.Sim
	src  *node.Node
	dst  *node.Node
	id   int
	open bool

	// Sender state.
	cwnd     float64
	ssthresh float64
	nextSeq  int64
	sndUna   int64
	dupAcks  int
	sentAt   map[int64]sim.Time
	srtt     float64
	rttvar   float64
	rto      sim.Time
	rtxTimer sim.Timer
	shaper   *rate.Shaper

	// Receiver state.
	rcvNxt int64
	ooo    map[int64]bool

	// Stats.
	DeliveredSegs int64 // in-order segments at the receiver
	Retransmits   int64
	Timeouts      int64

	startedAt sim.Time
}

const (
	initialRTO = 1 * sim.Second
	minRTO     = 200 * sim.Millisecond
	maxRTO     = 8 * sim.Second
	maxCwnd    = 64
)

// NewFlow creates a TCP flow from src to dst with the given flow id.
// Routes between src and dst (both directions) must be installed.
func NewFlow(s *sim.Sim, src, dst *node.Node, id int) *Flow {
	f := &Flow{
		s: s, src: src, dst: dst, id: id,
		cwnd:     2,
		ssthresh: 32,
		rto:      initialRTO,
		sentAt:   make(map[int64]sim.Time),
		ooo:      make(map[int64]bool),
	}
	f.rtxTimer = s.NewTimer(f.onTimeout)
	hookDeliver(dst, f, f.onData)
	hookDeliver(src, f, f.onAck)
	return f
}

// hookDeliver chains a per-flow handler into a node's delivery path.
func hookDeliver(n *node.Node, f *Flow, h func(*segment)) {
	prev := n.Deliver
	n.Deliver = func(p *node.Packet) {
		if seg, ok := p.Payload.(*segment); ok && seg.flow == f {
			h(seg)
			return
		}
		if prev != nil {
			prev(p)
		}
	}
}

// SetShaper routes the flow's data segments through a rate shaper — the
// paper's rate-control module applied to TCP traffic.
func (f *Flow) SetShaper(sh *rate.Shaper) { f.shaper = sh }

// Start opens the flow (backlogged bulk transfer).
func (f *Flow) Start() {
	f.open = true
	f.startedAt = f.s.Now()
	f.trySend()
}

// Stop closes the flow.
func (f *Flow) Stop() {
	f.open = false
	f.rtxTimer.Stop()
}

// GoodputBps returns receiver-side in-order goodput since Start.
func (f *Flow) GoodputBps() float64 {
	dur := (f.s.Now() - f.startedAt).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(f.DeliveredSegs) * MSS * 8 / dur
}

func (f *Flow) inFlight() int64 { return f.nextSeq - f.sndUna }

func (f *Flow) trySend() {
	if !f.open {
		return
	}
	for float64(f.inFlight()) < f.cwnd {
		f.transmit(f.nextSeq)
		f.nextSeq++
	}
	f.armRTX()
}

func (f *Flow) transmit(seq int64) {
	p := &node.Packet{
		FlowID:  f.id,
		Src:     f.src.ID(),
		Dst:     f.dst.ID(),
		Bytes:   MSS,
		Seq:     seq,
		SentAt:  f.s.Now(),
		Payload: &segment{flow: f, seq: seq},
	}
	if _, resend := f.sentAt[seq]; !resend {
		f.sentAt[seq] = f.s.Now()
	} else {
		delete(f.sentAt, seq) // Karn: no RTT sample from retransmits
	}
	if f.shaper != nil {
		f.shaper.Send(p)
		return
	}
	f.src.Send(p)
}

func (f *Flow) armRTX() {
	if f.inFlight() == 0 {
		f.rtxTimer.Stop()
		return
	}
	f.rtxTimer.Reset(f.rto)
}

func (f *Flow) onTimeout() {
	if !f.open || f.inFlight() == 0 {
		return
	}
	f.Timeouts++
	f.ssthresh = f.cwnd / 2
	if f.ssthresh < 2 {
		f.ssthresh = 2
	}
	f.cwnd = 1
	f.dupAcks = 0
	f.rto *= 2
	if f.rto > maxRTO {
		f.rto = maxRTO
	}
	f.Retransmits++
	f.transmit(f.sndUna)
	f.armRTX()
}

// onData runs at the receiver: advance the cumulative pointer through any
// buffered out-of-order segments and return an ACK.
func (f *Flow) onData(seg *segment) {
	if seg.seq >= f.rcvNxt {
		if seg.seq == f.rcvNxt {
			f.rcvNxt++
			f.DeliveredSegs++
			for f.ooo[f.rcvNxt] {
				delete(f.ooo, f.rcvNxt)
				f.rcvNxt++
				f.DeliveredSegs++
			}
		} else {
			f.ooo[seg.seq] = true
		}
	}
	f.dst.Send(&node.Packet{
		FlowID:  f.id,
		Src:     f.dst.ID(),
		Dst:     f.src.ID(),
		Bytes:   ACKBytes,
		Seq:     f.rcvNxt,
		SentAt:  f.s.Now(),
		Payload: &segment{flow: f, ack: true, seq: f.rcvNxt},
	})
}

// onAck runs at the sender.
func (f *Flow) onAck(seg *segment) {
	if !f.open {
		return
	}
	ackNo := seg.seq
	switch {
	case ackNo > f.sndUna:
		// New data acknowledged.
		if t0, ok := f.sentAt[ackNo-1]; ok {
			f.updateRTT(f.s.Now() - t0)
		}
		for s := f.sndUna; s < ackNo; s++ {
			delete(f.sentAt, s)
		}
		f.sndUna = ackNo
		f.dupAcks = 0
		if f.cwnd < f.ssthresh {
			f.cwnd++
		} else {
			f.cwnd += 1 / f.cwnd
		}
		if f.cwnd > maxCwnd {
			f.cwnd = maxCwnd
		}
		f.armRTX()
		f.trySend()
	case ackNo == f.sndUna && f.inFlight() > 0:
		f.dupAcks++
		if f.dupAcks == 3 {
			// Fast retransmit.
			f.ssthresh = f.cwnd / 2
			if f.ssthresh < 2 {
				f.ssthresh = 2
			}
			f.cwnd = f.ssthresh
			f.Retransmits++
			f.transmit(f.sndUna)
			f.armRTX()
		}
	}
}

func (f *Flow) updateRTT(sample sim.Time) {
	r := sample.Seconds()
	if f.srtt == 0 {
		f.srtt = r
		f.rttvar = r / 2
	} else {
		delta := r - f.srtt
		if delta < 0 {
			delta = -delta
		}
		f.rttvar = 0.75*f.rttvar + 0.25*delta
		f.srtt = 0.875*f.srtt + 0.125*r
	}
	f.rto = sim.Time((f.srtt + 4*f.rttvar) * 1e9)
	if f.rto < minRTO {
		f.rto = minRTO
	}
	if f.rto > maxRTO {
		f.rto = maxRTO
	}
}
