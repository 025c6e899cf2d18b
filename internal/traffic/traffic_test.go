package traffic

import (
	"math"
	"testing"

	"repro/internal/node"
	"repro/internal/phy"
	"repro/internal/sim"
)

func pair(t *testing.T) (*sim.Sim, []*node.Node) {
	t.Helper()
	s := sim.New(4)
	med := phy.NewMedium(s, phy.DefaultConfig())
	var nodes []*node.Node
	for i := 0; i < 2; i++ {
		r := med.AddRadio(phy.Position{X: float64(i) * 50})
		nodes = append(nodes, node.New(med, r, phy.Rate11))
	}
	nodes[0].SetRoute(1, 1)
	nodes[1].SetRoute(0, 0)
	return s, nodes
}

func TestCBRRateAccuracy(t *testing.T) {
	s, nodes := pair(t)
	sink := NewSink(s, nodes[1])
	src := NewCBR(s, nodes[0], 0, 1, 1000, 2e6)
	src.Start()
	s.Run(5 * sim.Second)
	src.Stop()
	got := sink.ThroughputBps(0)
	if math.Abs(got-2e6)/2e6 > 0.05 {
		t.Fatalf("CBR throughput %.2f Mb/s, want 2", got/1e6)
	}
}

func TestCBRZeroRateIdles(t *testing.T) {
	s, nodes := pair(t)
	sink := NewSink(s, nodes[1])
	src := NewCBR(s, nodes[0], 0, 1, 1000, 0)
	src.Start()
	s.Run(sim.Second)
	src.Stop()
	if sink.Packets(0) != 0 || src.SentPackets() != 0 {
		t.Fatal("zero-rate CBR emitted packets")
	}
}

func TestBackloggedSaturates(t *testing.T) {
	s, nodes := pair(t)
	sink := NewSink(s, nodes[1])
	src := NewBacklogged(s, nodes[0], 0, 1, DefaultPayload)
	src.Start()
	s.Run(4 * sim.Second)
	src.Stop()
	got := sink.ThroughputBps(0)
	if got < 5.5e6 {
		t.Fatalf("backlogged source reached only %.2f Mb/s", got/1e6)
	}
}

func TestBackloggedStops(t *testing.T) {
	s, nodes := pair(t)
	sink := NewSink(s, nodes[1])
	src := NewBacklogged(s, nodes[0], 0, 1, DefaultPayload)
	src.Start()
	s.Run(sim.Second)
	src.Stop()
	s.Run(s.Now() + 200*sim.Millisecond) // drain queue
	before := sink.Packets(0)
	s.Run(s.Now() + sim.Second)
	if sink.Packets(0) > before+1 {
		t.Fatal("backlogged source kept sending after Stop")
	}
}

func TestSinkPerFlowAccounting(t *testing.T) {
	s, nodes := pair(t)
	sink := NewSink(s, nodes[1])
	a := NewCBR(s, nodes[0], 1, 1, 500, 0.5e6)
	b := NewCBR(s, nodes[0], 2, 1, 1000, 1e6)
	a.Start()
	b.Start()
	s.Run(3 * sim.Second)
	a.Stop()
	b.Stop()
	if sink.Packets(1) == 0 || sink.Packets(2) == 0 {
		t.Fatal("flow accounting missing")
	}
	if sink.Bytes(2) <= sink.Bytes(1) {
		t.Fatal("per-flow byte accounting mixed up")
	}
}
