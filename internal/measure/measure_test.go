package measure

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

const testDur = 4 * sim.Second

func TestMaxUDPCleanLink(t *testing.T) {
	nw := topology.TwoLink(1, topology.CS, phy.Rate11, phy.Rate11)
	r := MaxUDP(nw.Network, nw.Link1, traffic.DefaultPayload, testDur)
	if r.ThroughputBps < 5.6e6 || r.ThroughputBps > 6.4e6 {
		t.Fatalf("maxUDP = %.2f Mb/s, want ~6.0", r.ThroughputBps/1e6)
	}
	if r.LossRate > 0.01 {
		t.Fatalf("loss = %v on clean link", r.LossRate)
	}
}

func TestMaxUDPLossyLink(t *testing.T) {
	nw := topology.TwoLink(1, topology.CS, phy.Rate11, phy.Rate11)
	nw.Medium.SetBER(0, 1, 8e-5) // ~62% frame loss at 1498 bytes
	r := MaxUDP(nw.Network, nw.Link1, traffic.DefaultPayload, testDur)
	clean := 6.0e6
	if r.ThroughputBps > 0.75*clean {
		t.Fatalf("lossy link throughput %.2f Mb/s did not degrade", r.ThroughputBps/1e6)
	}
	if r.LossRate == 0 {
		t.Fatal("expected residual network-layer loss on a very lossy link")
	}
}

// CS pairs must time-share: normalized throughputs sum to ~1.
func TestCSPairTimeShares(t *testing.T) {
	for _, rate := range []phy.Rate{phy.Rate1, phy.Rate11} {
		nw := topology.TwoLink(2, topology.CS, rate, rate)
		res := MeasureLIR(nw.Network, nw.Link1, nw.Link2, traffic.DefaultPayload, testDur)
		sum := res.C31/res.C11 + res.C32/res.C22
		if sum < 0.85 || sum > 1.15 {
			t.Errorf("%v CS normalized sum = %.2f, want ~1", rate, sum)
		}
		lir := res.LIR()
		if lir < 0.4 || lir > 0.75 {
			t.Errorf("%v CS LIR = %.2f, want mid-range (interfering)", rate, lir)
		}
	}
}

// IA at 1 Mb/s: capture lets the exposed link survive, so the pair rises
// well above time sharing (the Fig. 5 phenomenon).
func TestIACaptureAt1Mbps(t *testing.T) {
	nw := topology.TwoLink(3, topology.IA, phy.Rate1, phy.Rate1)
	res := MeasureLIR(nw.Network, nw.Link1, nw.Link2, traffic.DefaultPayload, testDur)
	sum := res.C31/res.C11 + res.C32/res.C22
	if sum < 1.3 {
		t.Fatalf("IA@1Mbps normalized sum = %.2f, want >1.3 (capture)", sum)
	}
}

// IA at 11 Mb/s: the exposed link cannot capture (needs 12 dB SINR) and
// degrades when the hidden transmitter is active.
func TestIAExposedLinkSuffersAt11Mbps(t *testing.T) {
	nw := topology.TwoLink(3, topology.IA, phy.Rate11, phy.Rate11)
	res := MeasureLIR(nw.Network, nw.Link1, nw.Link2, traffic.DefaultPayload, testDur)
	if res.C31 > 0.5*res.C11 {
		t.Fatalf("exposed link kept %.0f%% of solo throughput, want <50%%",
			100*res.C31/res.C11)
	}
	if res.C32 < 0.8*res.C22 {
		t.Fatalf("clear link dropped to %.0f%% of solo", 100*res.C32/res.C22)
	}
}

// NF at 11 Mb/s: the near link captures, the far link starves.
func TestNFAsymmetryAt11Mbps(t *testing.T) {
	nw := topology.TwoLink(4, topology.NF, phy.Rate11, phy.Rate11)
	res := MeasureLIR(nw.Network, nw.Link1, nw.Link2, traffic.DefaultPayload, testDur)
	near := res.C31 / res.C11
	far := res.C32 / res.C22
	if near < 0.7 {
		t.Fatalf("near link kept only %.0f%% of solo", 100*near)
	}
	if far > 0.6*near {
		t.Fatalf("far/near = %.2f/%.2f: expected starvation asymmetry", far, near)
	}
}

func TestInjectRatesFeasiblePoint(t *testing.T) {
	nw := topology.TwoLink(5, topology.CS, phy.Rate11, phy.Rate11)
	flows := []Flow{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}
	// Well inside the time-sharing region: 2 + 2 of ~6 Mb/s each.
	res := InjectRates(nw.Network, flows, []float64{2e6, 2e6}, traffic.DefaultPayload, testDur)
	for i, r := range res {
		if r.OutputBps < 0.95*r.InputBps {
			t.Fatalf("flow %d: output %.2f Mb/s for input %.2f", i, r.OutputBps/1e6, r.InputBps/1e6)
		}
	}
}

func TestInjectRatesInfeasiblePoint(t *testing.T) {
	nw := topology.TwoLink(5, topology.CS, phy.Rate11, phy.Rate11)
	flows := []Flow{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}
	// Far outside: 5 + 5 over a ~6 Mb/s shared channel.
	res := InjectRates(nw.Network, flows, []float64{5e6, 5e6}, traffic.DefaultPayload, testDur)
	total := res[0].OutputBps + res[1].OutputBps
	if total > 6.8e6 {
		t.Fatalf("total output %.2f Mb/s exceeds channel capacity", total/1e6)
	}
	if res[0].OutputBps > 0.95*5e6 && res[1].OutputBps > 0.95*5e6 {
		t.Fatal("infeasible input rates were both achieved")
	}
}

func TestSequentialPhasesIndependent(t *testing.T) {
	nw := topology.TwoLink(6, topology.CS, phy.Rate11, phy.Rate11)
	a := MaxUDP(nw.Network, nw.Link1, traffic.DefaultPayload, testDur)
	b := MaxUDP(nw.Network, nw.Link1, traffic.DefaultPayload, testDur)
	diff := (a.ThroughputBps - b.ThroughputBps) / a.ThroughputBps
	if diff < -0.05 || diff > 0.05 {
		t.Fatalf("repeat maxUDP differs by %.1f%%", 100*diff)
	}
}

func TestMultiHopChainThroughput(t *testing.T) {
	nw := topology.Chain(7, 3, 70, phy.Rate11)
	hooks := 0
	_ = hooks
	sink := traffic.NewSink(nw.Sim, nw.Nodes[2])
	src := traffic.NewBacklogged(nw.Sim, nw.Nodes[0], 0, 2, traffic.DefaultPayload)
	src.Start()
	nw.Sim.Run(nw.Sim.Now() + 4*sim.Second)
	src.Stop()
	bps := sink.ThroughputBps(0)
	// Two hops share one collision domain: roughly half the one-hop rate.
	if bps < 2.0e6 || bps > 3.6e6 {
		t.Fatalf("2-hop chain throughput = %.2f Mb/s, want ~3", bps/1e6)
	}
}

func TestMesh18HasRichLinkSet(t *testing.T) {
	nw := topology.Mesh18(1)
	links := nw.Links(phy.Rate11)
	if len(links) < 40 {
		t.Fatalf("mesh has only %d 11Mbps links", len(links))
	}
	l1 := nw.Links(phy.Rate1)
	if len(l1) <= len(links) {
		t.Fatal("1 Mb/s should reach at least as many links as 11 Mb/s")
	}
}

// A saturated carrier-sensing pair is the simulator's hot loop: backoff
// slots, DATA/ACK exchanges, end-of-air fan-out. What may still allocate
// per frame is the traffic itself (packet, frame), not the kernel, the
// MAC's timers or the medium.
func TestSaturatedPairAllocsPerFrame(t *testing.T) {
	var frames int64
	allocs := testing.AllocsPerRun(1, func() {
		nw := topology.TwoLink(1, topology.CS, phy.Rate11, phy.Rate11)
		Simultaneous(nw.Network, []topology.Link{nw.Link1, nw.Link2}, traffic.DefaultPayload, testDur)
		frames = 0
		for a := range nw.Nodes {
			for b := range nw.Nodes {
				if a != b {
					frames += nw.Medium.Counters(a, b).Sent
				}
			}
		}
	})
	if frames < 1000 {
		t.Fatalf("only %d frames sent; the pair is not saturated", frames)
	}
	if perFrame := allocs / float64(frames); perFrame > 5 {
		t.Fatalf("%.2f allocations per frame over %d frames, want <= 5", perFrame, frames)
	}
}
