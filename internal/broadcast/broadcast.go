// Package broadcast is a deterministic event-driven broadcast
// dissemination engine built on the repo's sim/phy stack: the second
// workload class next to the paper's capacity/fairness sweeps.
//
// A dissemination run injects one message at a root node and lets a
// pluggable Relay policy (flood, probabilistic gossip, k-random
// subset, gain-tree) decide which neighbors each node forwards to.
// Transfers ride a frozen Net extracted from a simulated network:
// per-link frame loss probabilities, airtime-derived hop delays and
// channel gains for every link decodable at the chosen rate. Nodes can
// carry adversarial flags — malicious (receive but never relay) or
// churned (absent for a seeded interval, missing frames entirely).
//
// Determinism is the whole point: every run is a pure function of
// (Net, root, policy, flags, seed). All timing flows through one
// sim.Sim event heap, which fires same-instant events in FIFO order
// (see sim's seq tie-break), and all randomness — per-hop loss coins,
// forwarding jitter, policy sampling — is drawn from that simulator's
// single seeded stream in event order. Two runs with equal inputs
// therefore produce identical Metrics, which is what lets the
// broadcast experiment inherit the engine's byte-identity contract
// across worker counts, shards, steals and resumes.
package broadcast

import (
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Forwarding timing: a node that decides to relay spends a fixed
// processing delay plus a small uniform jitter before each transmit.
// The jitter keeps sibling transmissions from landing at identical
// instants, so relay-order effects are exercised rather than hidden
// behind FIFO ties.
const (
	procDelay = 200 * sim.Microsecond
	maxJitter = 100 * sim.Microsecond
)

// horizon bounds a run; dissemination drains the event heap long
// before this (nodes only relay on first receipt), so it is purely a
// safety net against a policy that schedules unboundedly.
const horizon = 60 * sim.Second

// Net is a frozen dissemination graph: the decodable directed links of
// a simulated network at one rate, with per-link loss probability,
// hop delay and channel gain. Freezing the graph keeps the event loop
// allocation-free and makes runs independent of the originating
// Network's mutable state.
type Net struct {
	// N is the node count.
	N int
	// Neighbors[v] lists v's out-neighbors in ascending node order
	// (the enumeration order of topology.Network.Links).
	Neighbors [][]int
	// BestIn[w] is the in-neighbor of w with the strongest channel
	// gain (lowest id on ties), or -1 if w has no in-links. It is the
	// parent relation of the gain forest the Tree policy relays on.
	BestIn []int
	// Rate and Payload are the transmit rate and message size the
	// graph was frozen at; dissemination traces record them per hop.
	Rate    phy.Rate
	Payload int

	loss  []float64  // [src*N+dst] frame loss probability
	delay []sim.Time // [src*N+dst] transfer delay (airtime)
	gain  []float64  // [src*N+dst] channel gain, mW per mW sent
}

// Loss returns the frame loss probability of the directed link v->w.
func (n *Net) Loss(v, w int) float64 { return n.loss[v*n.N+w] }

// Delay returns the transfer delay of the directed link v->w.
func (n *Net) Delay(v, w int) sim.Time { return n.delay[v*n.N+w] }

// Gain returns the channel gain of the directed link v->w.
func (n *Net) Gain(v, w int) float64 { return n.gain[v*n.N+w] }

// NewNet freezes the dissemination graph of nw at rate r for messages
// of payloadBytes: every directed link decodable at r becomes an edge
// carrying the medium's frame loss probability, the frame airtime as
// its delay, and the channel gain.
func NewNet(nw *topology.Network, r phy.Rate, payloadBytes int) *Net {
	n := len(nw.Nodes)
	net := &Net{
		N:         n,
		Neighbors: make([][]int, n),
		BestIn:    make([]int, n),
		Rate:      r,
		Payload:   payloadBytes,
		loss:      make([]float64, n*n),
		delay:     make([]sim.Time, n*n),
		gain:      make([]float64, n*n),
	}
	for i := range net.BestIn {
		net.BestIn[i] = -1
	}
	air := phy.Airtime(r, payloadBytes)
	for _, l := range nw.Links(r) {
		k := l.Src*n + l.Dst
		net.Neighbors[l.Src] = append(net.Neighbors[l.Src], l.Dst)
		net.loss[k] = nw.Medium.FrameLossProb(l.Src, l.Dst, r, payloadBytes)
		net.delay[k] = air
		net.gain[k] = nw.Medium.GainMW(l.Src, l.Dst)
		if best := net.BestIn[l.Dst]; best < 0 || net.gain[k] > net.Gain(best, l.Dst) {
			net.BestIn[l.Dst] = l.Src
		}
	}
	return net
}

// Metrics summarizes one dissemination run.
type Metrics struct {
	// Nodes is the network size, Reached the number of nodes that
	// received the message at least once (the root counts).
	Nodes, Reached int
	// Coverage is Reached/Nodes.
	Coverage float64
	// Deliveries counts every frame accepted by a present node,
	// duplicates included; Duplicates counts repeat receipts and
	// DupRate is Duplicates/Deliveries.
	Deliveries, Duplicates int
	DupRate                float64
	// Depth is the maximum relay-tree depth over first receipts.
	Depth int
	// Latencies holds the first-receipt latency in seconds of every
	// reached non-root node, in receipt order.
	Latencies []float64
}

// Channel overrides the per-hop loss decision: coin is the relay
// loop's own Bernoulli draw (always performed, keeping the rng stream
// identical with or without an override) and the return value decides
// whether the frame is lost. *trace.Replay satisfies this, which is
// how a dissemination run replays a recorded trace.
type Channel interface {
	Outcome(src, dst int, seq int64, kind int, coin bool) bool
}

// Run executes one dissemination from root under policy and the given
// adversarial flags (nil means no adversaries). Every per-hop channel
// decision is reported to tap (when non-nil) as a phy.Decision, and
// decided by channel (when non-nil) instead of the relay loop's own
// coin; the rng draw sequence is identical in all cases. The run is a
// pure function of its arguments; see the package comment for why.
func Run(net *Net, root int, policy Relay, flags *Flags, seed int64, tap phy.Tracer, channel Channel) Metrics {
	s := sim.New(seed)
	rng := s.Rand()
	recv := make([]bool, net.N)
	m := Metrics{Nodes: net.N}
	var seq int64

	var relay func(v, from, d int)
	receive := func(w, from, d int) {
		if flags != nil && w != root && flags.Absent(w, s.Now()) {
			return // churned out: the frame is simply missed
		}
		m.Deliveries++
		if recv[w] {
			m.Duplicates++
			return
		}
		recv[w] = true
		m.Reached++
		if d > m.Depth {
			m.Depth = d
		}
		if w != root {
			m.Latencies = append(m.Latencies, s.Now().Seconds())
		}
		if flags != nil && w != root && flags.Malicious[w] {
			return // receive-but-drop
		}
		relay(w, from, d)
	}
	relay = func(v, from, d int) {
		for _, w := range policy.Targets(net, v, from, rng) {
			coin := rng.Float64() < net.Loss(v, w)
			lost := coin
			hop := seq
			seq++
			if channel != nil {
				lost = channel.Outcome(v, w, hop, int(phy.KindData), coin)
			}
			if tap != nil {
				cause := phy.CauseNone
				if lost {
					cause = phy.CauseChannel
				}
				tap.Decide(phy.Decision{
					T: s.Now(), Src: v, Dst: w, Seq: hop,
					Kind: phy.KindData, Rate: net.Rate, Bytes: net.Payload,
					Delivered: !lost, Cause: cause,
				})
			}
			if lost {
				continue // frame lost on the channel
			}
			delay := net.Delay(v, w) + procDelay + sim.Time(rng.Int63n(int64(maxJitter)))
			s.Schedule(s.Now()+delay, func() { receive(w, v, d+1) })
		}
	}

	receive(root, -1, 0)
	s.Run(horizon)

	m.Coverage = float64(m.Reached) / float64(m.Nodes)
	if m.Deliveries > 0 {
		m.DupRate = float64(m.Duplicates) / float64(m.Deliveries)
	}
	return m
}
