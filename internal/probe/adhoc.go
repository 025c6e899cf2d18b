package probe

import (
	"math"

	"repro/internal/node"
	"repro/internal/sim"
)

// AdHocProbe is the packet-pair capacity estimator of Chen et al. used as
// the baseline in Fig. 11: the sender emits back-to-back unicast packet
// pairs; the receiver measures the dispersion (arrival spacing) of each
// complete pair and estimates path capacity as packet size over the
// minimum observed dispersion. The minimum-filter removes queueing and
// contention delay but, as the paper shows, it also removes the cost of
// channel-loss retransmissions — so it tracks nominal rather than maxUDP
// throughput.
type AdHocProbe struct {
	s     *sim.Sim
	src   *node.Node
	dst   int
	bytes int

	pairs   int
	period  sim.Time
	sent    int
	running bool
	emitFn  sim.Event // a.emit, bound once

	firstArrival map[int64]sim.Time
	minDisp      sim.Time
	samples      int
}

// pairPayload marks Ad Hoc Probe packets. Pair is the pair id; Index is 0
// or 1 within the pair.
type pairPayload struct {
	Pair  int64
	Index int
}

// NewAdHocProbe prepares a packet-pair run of `pairs` pairs of
// payloadBytes packets from src to dst, one pair per period.
func NewAdHocProbe(s *sim.Sim, src *node.Node, dst, payloadBytes, pairs int, period sim.Time) *AdHocProbe {
	a := &AdHocProbe{
		s: s, src: src, dst: dst, bytes: payloadBytes,
		pairs: pairs, period: period,
		firstArrival: make(map[int64]sim.Time),
		minDisp:      math.MaxInt64,
	}
	a.emitFn = a.emit
	return a
}

// Start begins emitting pairs and recording dispersions at the receiver
// node (which must be reachable via the source's routing table).
func (a *AdHocProbe) Start(receiver *node.Node) {
	prev := receiver.Deliver
	receiver.Deliver = func(p *node.Packet) {
		if pp, ok := p.Payload.(*pairPayload); ok {
			a.onArrival(pp)
			return
		}
		if prev != nil {
			prev(p)
		}
	}
	a.running = true
	a.emit()
}

// Stop halts emission.
func (a *AdHocProbe) Stop() { a.running = false }

func (a *AdHocProbe) emit() {
	if !a.running || a.sent >= a.pairs {
		a.running = false
		return
	}
	a.sent++
	id := int64(a.sent)
	for idx := 0; idx < 2; idx++ {
		a.src.Send(&node.Packet{
			FlowID:  -1,
			Src:     a.src.ID(),
			Dst:     a.dst,
			Bytes:   a.bytes,
			Payload: &pairPayload{Pair: id, Index: idx},
		})
	}
	a.s.Schedule(a.s.Now()+a.period, a.emitFn)
}

func (a *AdHocProbe) onArrival(pp *pairPayload) {
	switch pp.Index {
	case 0:
		a.firstArrival[pp.Pair] = a.s.Now()
	case 1:
		t0, ok := a.firstArrival[pp.Pair]
		if !ok {
			return // first packet lost: incomplete pair
		}
		disp := a.s.Now() - t0
		if disp > 0 && disp < a.minDisp {
			a.minDisp = disp
		}
		a.samples++
		delete(a.firstArrival, pp.Pair)
	}
}

// EstimateBps returns the Ad Hoc Probe capacity estimate: packet bits over
// minimum dispersion. Returns 0 before any complete pair arrives.
func (a *AdHocProbe) EstimateBps() float64 {
	if a.samples == 0 || a.minDisp <= 0 {
		return 0
	}
	return float64(8*a.bytes) / a.minDisp.Seconds()
}
