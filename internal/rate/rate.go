// Package rate provides the network-layer traffic shaper of the paper's
// rate-control module (§6.1, the Click BandwidthShaper analogue): a token
// bucket that releases queued packets at a configured bit rate. Shapers
// sit between a traffic source (UDP generator or TCP sender) and the
// node's forwarding path, which is exactly where the paper applies the
// optimizer's output rates.
package rate

import (
	"repro/internal/node"
	"repro/internal/sim"
)

// DefaultBucketDepth is the default burst allowance, in packets' worth of
// bytes, granted when the shaper is idle.
const DefaultBucketDepth = 2

// Shaper is a token-bucket rate limiter in front of a node's Send.
type Shaper struct {
	s *sim.Sim
	n *node.Node

	rateBps  float64 // token fill rate (payload bits/s); <= 0 blocks
	depthPkt int     // bucket depth in packets of the current size

	tokens   float64 // bits
	lastFill sim.Time
	queue    []*node.Packet
	queueCap int
	timer    sim.Timer

	// Dropped counts packets rejected by the shaper queue.
	Dropped int64
	// Sent counts packets released downstream.
	Sent int64
}

// NewShaper creates a shaper for n at rateBps payload bits per second.
func NewShaper(s *sim.Sim, n *node.Node, rateBps float64) *Shaper {
	sh := &Shaper{
		s: s, n: n,
		rateBps:  rateBps,
		depthPkt: DefaultBucketDepth,
		queueCap: 200,
		lastFill: s.Now(),
	}
	sh.timer = s.NewTimer(sh.drain)
	return sh
}

// Send shapes p toward its destination. It reports false when the shaper
// queue is full and the packet was dropped.
func (sh *Shaper) Send(p *node.Packet) bool {
	if len(sh.queue) >= sh.queueCap {
		sh.Dropped++
		return false
	}
	sh.queue = append(sh.queue, p)
	sh.drain()
	return true
}

func (sh *Shaper) fill() {
	now := sh.s.Now()
	if sh.rateBps > 0 {
		sh.tokens += sh.rateBps * (now - sh.lastFill).Seconds()
		if limit := float64(8 * sh.depthPkt * sh.headPacketBytes()); sh.tokens > limit && limit > 0 {
			sh.tokens = limit
		}
	}
	sh.lastFill = now
}

func (sh *Shaper) headPacketBytes() int {
	if len(sh.queue) == 0 {
		return 1500
	}
	return sh.queue[0].Bytes
}

func (sh *Shaper) drain() {
	sh.fill()
	for len(sh.queue) > 0 {
		p := sh.queue[0]
		need := float64(8 * p.Bytes)
		if sh.tokens < need {
			break
		}
		sh.tokens -= need
		sh.queue = sh.queue[1:]
		sh.Sent++
		sh.n.Send(p)
	}
	if len(sh.queue) > 0 && sh.rateBps > 0 {
		need := float64(8*sh.queue[0].Bytes) - sh.tokens
		wait := sim.Time(need / sh.rateBps * 1e9)
		if wait < sim.Microsecond {
			wait = sim.Microsecond
		}
		sh.timer.Reset(wait)
	}
}
