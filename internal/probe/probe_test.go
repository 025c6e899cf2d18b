package probe

import (
	"math"
	"testing"

	"repro/internal/core/capacity"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestProberSendsBothClasses(t *testing.T) {
	nw := topology.TwoLink(1, topology.CS, phy.Rate11, phy.Rate11)
	rec := NewRecorder(nw.Node(1))
	p := NewProber(nw.Sim, nw.Node(0), phy.Rate11, traffic.DefaultPayload)
	p.SetPeriod(100 * sim.Millisecond)
	p.Start()
	nw.Sim.Run(10 * sim.Second)
	p.Stop()
	if p.sent[ClassData] < 95 || p.sent[ClassAck] < 95 {
		t.Fatalf("sent %d/%d probes", p.sent[ClassData], p.sent[ClassAck])
	}
	for _, c := range []Class{ClassData, ClassAck} {
		tr := rec.Trace(0, c, 100)
		if tr.MeasuredLoss() > 0.02 {
			t.Fatalf("class %d loss %v on clean link", c, tr.MeasuredLoss())
		}
	}
}

func TestRecorderMeasuresChannelLoss(t *testing.T) {
	nw := topology.TwoLink(2, topology.CS, phy.Rate11, phy.Rate11)
	ber := 1e-5
	nw.Medium.SetBER(0, 1, ber)
	rec := NewRecorder(nw.Node(1))
	p := NewProber(nw.Sim, nw.Node(0), phy.Rate11, traffic.DefaultPayload)
	p.SetPeriod(20 * sim.Millisecond)
	p.Start()
	nw.Sim.Run(40 * sim.Second) // ~2000 probes
	p.Stop()

	wantData := nw.Medium.ChannelLossProb(0, 1, traffic.DefaultPayload+phy.MACHeaderBytes)
	gotData := rec.Trace(0, ClassData, 1280).MeasuredLoss()
	if math.Abs(gotData-wantData) > 0.05 {
		t.Fatalf("DATA probe loss %v, channel ground truth %v", gotData, wantData)
	}
	// ACK probes are short: far lower loss.
	gotAck := rec.Trace(0, ClassAck, 1280).MeasuredLoss()
	if gotAck >= gotData {
		t.Fatalf("ACK loss %v not below DATA loss %v", gotAck, gotData)
	}
}

func TestEstimateSeparatesCollisionsFromChannelLoss(t *testing.T) {
	// Probing during heavy interference from a hidden transmitter: the
	// measured loss is inflated by collisions; the estimator should
	// recover something near the channel-only loss.
	nw := topology.TwoLink(3, topology.IA, phy.Rate11, phy.Rate11)
	ber := 6e-6
	nw.Medium.SetBER(0, 1, ber)
	rec := NewRecorder(nw.Node(1))
	p := NewProber(nw.Sim, nw.Node(0), phy.Rate11, traffic.DefaultPayload)
	p.SetPeriod(20 * sim.Millisecond)
	p.Start()

	// Hidden interferer (node 2) transmits in occasional bursts (on
	// 400 ms, off 4 s): collision losses are bursty and sparse relative
	// to the estimator's window, as the paper's loss studies observe.
	burst := traffic.NewCBR(nw.Sim, nw.Node(2), 9, 3, traffic.DefaultPayload, 5e6)
	var cycle func()
	on := false
	cycle = func() {
		if on {
			burst.Stop()
			nw.Sim.After(4*sim.Second, cycle)
		} else {
			burst.Start()
			nw.Sim.After(400*sim.Millisecond, cycle)
		}
		on = !on
	}
	cycle()

	nw.Sim.Run(40 * sim.Second)
	p.Stop()
	burst.Stop()

	est, ok := rec.Estimate(0, 1280)
	if !ok {
		t.Fatal("no estimate")
	}
	raw := rec.Trace(0, ClassData, 1280).MeasuredLoss()
	truth := nw.Medium.ChannelLossProb(0, 1, traffic.DefaultPayload+phy.MACHeaderBytes)
	if raw < truth+0.04 {
		t.Fatalf("setup: interference added only %v loss over %v", raw, truth)
	}
	if math.Abs(est.PData-truth) > 0.10 {
		t.Fatalf("estimated channel loss %v, truth %v (raw %v)", est.PData, truth, raw)
	}
}

func TestSendersNeighbourDiscovery(t *testing.T) {
	nw := topology.Chain(4, 4, 80, phy.Rate11)
	recs := make([]*Recorder, 4)
	for i := range recs {
		recs[i] = NewRecorder(nw.Node(i))
	}
	for i := 0; i < 4; i++ {
		p := NewProber(nw.Sim, nw.Node(i), phy.Rate11, 200)
		p.SetPeriod(100 * sim.Millisecond)
		p.Start()
	}
	nw.Sim.Run(3 * sim.Second)
	// Node 0 must hear at least node 1; broadcast probes at 11 Mb/s
	// reach only decodable neighbours.
	heard := recs[0].Senders()
	found := false
	for _, id := range heard {
		if id == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("node 0 heard %v, expected neighbour 1", heard)
	}
}

func TestTraceWindowBounded(t *testing.T) {
	var tr seqTrace
	for q := int64(1); q <= 10000; q++ {
		tr.mark(q, sim.Time(q)*sim.Millisecond)
	}
	got := tr.trace(500)
	if len(got) != 500 {
		t.Fatalf("trace len = %d", len(got))
	}
	if got.MeasuredLoss() != 0 {
		t.Fatal("all-received trace shows loss")
	}
}

func TestTraceMarksGapsAsLost(t *testing.T) {
	var tr seqTrace
	for q := int64(1); q <= 100; q++ {
		if q%4 != 0 {
			tr.mark(q, sim.Time(q)*sim.Millisecond)
		}
	}
	// Highest observed is 99 (100 lost, unseen at the tail).
	got := tr.trace(99)
	if math.Abs(got.MeasuredLoss()-0.242) > 0.01 {
		t.Fatalf("loss = %v", got.MeasuredLoss())
	}
}

func TestAdHocProbeTracksNominalOnCleanLink(t *testing.T) {
	nw := topology.TwoLink(5, topology.CS, phy.Rate11, phy.Rate11)
	nw.InstallDirectRoute(nw.Link1)
	a := NewAdHocProbe(nw.Sim, nw.Node(0), 1, traffic.DefaultPayload, 200, 50*sim.Millisecond)
	a.Start(nw.Node(1))
	nw.Sim.Run(15 * sim.Second)
	a.Stop()
	if a.samples < 150 {
		t.Fatalf("only %d complete pairs", a.samples)
	}
	est := a.EstimateBps()
	// Min dispersion excludes the mean backoff: estimate sits at or
	// above the nominal saturation goodput.
	nom := capacity.NominalGoodput(phy.Rate11, traffic.DefaultPayload)
	if est < 0.95*nom || est > 1.5*nom {
		t.Fatalf("AdHoc estimate %.2f Mb/s vs nominal %.2f", est/1e6, nom/1e6)
	}
}

func TestAdHocProbeIgnoresChannelLoss(t *testing.T) {
	// The paper's Fig. 11 point: on a lossy link Ad Hoc Probe still
	// reports near-nominal capacity while true maxUDP collapses.
	nw := topology.TwoLink(6, topology.CS, phy.Rate11, phy.Rate11)
	nw.Medium.SetBER(0, 1, 5e-5) // heavy loss
	nw.InstallDirectRoute(nw.Link1)
	a := NewAdHocProbe(nw.Sim, nw.Node(0), 1, traffic.DefaultPayload, 300, 50*sim.Millisecond)
	a.Start(nw.Node(1))
	nw.Sim.Run(20 * sim.Second)
	a.Stop()
	est := a.EstimateBps()
	nom := capacity.NominalGoodput(phy.Rate11, traffic.DefaultPayload)
	if est < 0.9*nom {
		t.Fatalf("AdHoc estimate %.2f Mb/s should stay near nominal %.2f on lossy link",
			est/1e6, nom/1e6)
	}
}
