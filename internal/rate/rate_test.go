package rate

import (
	"testing"

	"repro/internal/node"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func setup(t *testing.T, rateBps float64) (*topology.TwoLinkResult, *Shaper, *traffic.Sink) {
	t.Helper()
	nw := topology.TwoLink(1, topology.CS, phy.Rate11, phy.Rate11)
	nw.InstallDirectRoute(nw.Link1)
	sh := NewShaper(nw.Sim, nw.Node(0), rateBps)
	sink := traffic.NewSink(nw.Sim, nw.Node(1))
	return nw, sh, sink
}

func pkt(seq int64) *node.Packet {
	return &node.Packet{FlowID: 0, Src: 0, Dst: 1, Bytes: 1000, Seq: seq}
}

func TestShaperLimitsRate(t *testing.T) {
	nw, sh, sink := setup(t, 1e6)
	// Offer 4 Mb/s into a 1 Mb/s shaper for 4 s.
	interval := sim.Time(2 * sim.Millisecond) // 1000B/2ms = 4 Mb/s
	var seq int64
	var emit func()
	emit = func() {
		seq++
		sh.Send(pkt(seq))
		if nw.Sim.Now() < 4*sim.Second {
			nw.Sim.After(interval, emit)
		}
	}
	emit()
	nw.Sim.Run(5 * sim.Second)
	got := float64(sink.Bytes(0)) * 8 / 5
	if got > 1.1e6 || got < 0.85e6 {
		t.Fatalf("shaped throughput = %.2f Mb/s, want ~1", got/1e6)
	}
}

func TestShaperPassesUnderloadedTraffic(t *testing.T) {
	nw, sh, sink := setup(t, 5e6)
	for i := int64(1); i <= 50; i++ {
		i := i
		nw.Sim.At(sim.Time(i)*20*sim.Millisecond, func() { sh.Send(pkt(i)) })
	}
	nw.Sim.Run(2 * sim.Second)
	if sink.Packets(0) != 50 {
		t.Fatalf("delivered %d/50 under-rate packets", sink.Packets(0))
	}
	if sh.Dropped != 0 {
		t.Fatalf("dropped %d packets while under rate", sh.Dropped)
	}
}

func TestShaperQueueOverflowDrops(t *testing.T) {
	_, sh, _ := setup(t, 1) // essentially blocked
	for i := int64(0); i < 500; i++ {
		sh.Send(pkt(i))
	}
	if sh.Dropped == 0 {
		t.Fatal("expected drops from a blocked shaper")
	}
	if len(sh.queue) > 200 {
		t.Fatalf("queue grew to %d beyond cap", len(sh.queue))
	}
}

func TestZeroRateBlocks(t *testing.T) {
	nw, sh, sink := setup(t, 0)
	for i := int64(0); i < 10; i++ {
		sh.Send(pkt(i))
	}
	nw.Sim.Run(sim.Second)
	if sink.Packets(0) != 0 {
		t.Fatal("zero-rate shaper leaked packets")
	}
}
