package controller

import (
	"testing"

	"repro/internal/core/optimize"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topology"
)

func probeAndCompute(t *testing.T, nw *topology.Network, flows []Flow, cfg Config) *Plan {
	t.Helper()
	c := New(nw, flows, cfg)
	c.ProbeFullWindow()
	plan, err := c.Compute()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestComputeOnChain(t *testing.T) {
	nw := topology.Chain(1, 3, 70, phy.Rate11)
	cfg := DefaultConfig(phy.Rate11)
	cfg.ProbePeriod = 50 * sim.Millisecond // speed the test up
	plan := probeAndCompute(t, nw, []Flow{{Src: 2, Dst: 0}}, cfg)

	if len(plan.FlowPaths[0]) != 3 {
		t.Fatalf("path = %v, want 2 hops", plan.FlowPaths[0])
	}
	if len(plan.Links) != 2 {
		t.Fatalf("links = %v", plan.Links)
	}
	// Clean links: capacities near nominal ~6 Mb/s.
	for i, c := range plan.Capacities {
		if c < 5e6 || c > 6.5e6 {
			t.Fatalf("capacity[%d] = %.2f Mb/s", i, c/1e6)
		}
	}
	// Both chain links conflict (two-hop rule): flow rate ~ half link
	// capacity.
	y := plan.OutputRates[0]
	if y < 2.2e6 || y > 3.3e6 {
		t.Fatalf("optimized rate = %.2f Mb/s, want ~3", y/1e6)
	}
}

func TestComputeTwoFlowStarvationScenario(t *testing.T) {
	// 120 m hops only sustain 1 Mb/s, as in the paper's Fig. 13 runs.
	nw := topology.GatewayScenario(2, phy.Rate1)
	cfg := DefaultConfig(phy.Rate1)
	cfg.ProbePeriod = 50 * sim.Millisecond
	flows := []Flow{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}}

	// Proportional fairness: the 2-hop flow gets a meaningful share.
	plan := probeAndCompute(t, nw, flows, cfg)
	if plan.OutputRates[1] < 0.2*plan.OutputRates[0] {
		t.Fatalf("prop-fair rates %v starve the 2-hop flow", plan.OutputRates)
	}

	// Max throughput: all airtime goes to the 1-hop flow.
	cfg.Objective = optimize.MaxThroughput
	c2 := New(nw, flows, cfg)
	c2.ProbeFullWindow()
	plan2, err := c2.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if plan2.OutputRates[1] > 0.1*plan2.OutputRates[0] {
		t.Fatalf("max-throughput rates %v should starve the 2-hop flow", plan2.OutputRates)
	}
	if plan2.OutputRates[0] < plan.OutputRates[0] {
		t.Fatal("max-throughput gave the 1-hop flow less than prop-fair did")
	}
}

func TestLossyLinkReducesCapacityEstimate(t *testing.T) {
	nw := topology.Chain(3, 2, 70, phy.Rate11)
	nw.Medium.SetBER(0, 1, 2e-5)
	cfg := DefaultConfig(phy.Rate11)
	cfg.ProbePeriod = 50 * sim.Millisecond
	plan := probeAndCompute(t, nw, []Flow{{Src: 0, Dst: 1}}, cfg)
	if plan.LossRates[0] < 0.02 {
		t.Fatalf("estimated loss %v on a lossy link", plan.LossRates[0])
	}
	// The sliding-minimum estimator is negatively biased on iid loss, so
	// the capacity only drops part of the way toward the Eq. 6 value.
	if plan.Capacities[0] > 5.85e6 {
		t.Fatalf("capacity %.2f Mb/s did not reflect loss", plan.Capacities[0]/1e6)
	}
	// Input rate must exceed output rate to compensate residual loss
	// only slightly (MAC retries mask most of it).
	if plan.InputRates[0] < plan.OutputRates[0] {
		t.Fatal("input rate below output rate")
	}
}

func TestApplyUDPAchievesPlannedRates(t *testing.T) {
	nw := topology.Chain(4, 3, 70, phy.Rate11)
	cfg := DefaultConfig(phy.Rate11)
	cfg.ProbePeriod = 50 * sim.Millisecond
	flows := []Flow{{Src: 0, Dst: 2}}
	c := New(nw, flows, cfg)
	c.ProbeFullWindow()
	plan, err := c.Compute()
	if err != nil {
		t.Fatal(err)
	}
	sources, sinks := c.ApplyUDP(plan)
	nw.Sim.Run(nw.Sim.Now() + 8*sim.Second)
	for _, s := range sources {
		s.Stop()
	}
	got := sinks[0].ThroughputBps(0)
	want := plan.OutputRates[0]
	if got < 0.85*want {
		t.Fatalf("achieved %.2f Mb/s of planned %.2f", got/1e6, want/1e6)
	}
}

func TestApplyTCPIsolatesFlows(t *testing.T) {
	nw := topology.GatewayScenario(5, phy.Rate1)
	cfg := DefaultConfig(phy.Rate1)
	cfg.ProbePeriod = 50 * sim.Millisecond
	flows := []Flow{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}}
	c := New(nw, flows, cfg)
	c.ProbeFullWindow()
	plan, err := c.Compute()
	if err != nil {
		t.Fatal(err)
	}
	tcp, _ := c.ApplyTCP(plan)
	nw.Sim.Run(nw.Sim.Now() + 20*sim.Second)
	for _, f := range tcp {
		f.Stop()
	}
	// Under rate control the 2-hop flow must not starve.
	b1, b2 := tcp[0].GoodputBps(), tcp[1].GoodputBps()
	if b2 < 0.25*plan.OutputRates[1] {
		t.Fatalf("2-hop TCP got %.3f Mb/s of planned %.3f", b2/1e6, plan.OutputRates[1]/1e6)
	}
	if b1 == 0 {
		t.Fatal("1-hop flow dead")
	}
}

func TestComputeWithoutProbingFails(t *testing.T) {
	nw := topology.Chain(6, 2, 70, phy.Rate11)
	c := New(nw, []Flow{{Src: 0, Dst: 1}}, DefaultConfig(phy.Rate11))
	if _, err := c.Compute(); err == nil {
		t.Fatal("Compute without probing should fail")
	}
}

func TestUnroutableFlowFails(t *testing.T) {
	// Two disconnected pairs.
	nw := topology.New(7, phy.DefaultConfig(),
		[]phy.Position{{X: 0}, {X: 60}, {X: 5000}, {X: 5060}}, phy.Rate11)
	cfg := DefaultConfig(phy.Rate11)
	cfg.ProbePeriod = 50 * sim.Millisecond
	c := New(nw, []Flow{{Src: 0, Dst: 3}}, cfg)
	c.ProbeFullWindow()
	if _, err := c.Compute(); err == nil {
		t.Fatal("unroutable flow should fail")
	}
}

func TestOneHopVsTwoHopConflictDensity(t *testing.T) {
	nw := topology.Chain(8, 5, 70, phy.Rate11)
	cfg := DefaultConfig(phy.Rate11)
	cfg.ProbePeriod = 50 * sim.Millisecond
	flows := []Flow{{Src: 0, Dst: 4}}
	c := New(nw, flows, cfg)
	c.ProbeFullWindow()
	planTwo, err := c.Compute()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Conflicts = OneHopModel
	c2 := New(nw, flows, cfg)
	c2.ProbeFullWindow()
	planOne, err := c2.Compute()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < planOne.Graph.N(); i++ {
		for j := i + 1; j < planOne.Graph.N(); j++ {
			if planOne.Graph.Interferes(i, j) && !planTwo.Graph.Interferes(i, j) {
				t.Fatalf("one-hop conflict %d-%d missing from the two-hop graph", i, j)
			}
		}
	}
	// Fewer conflicts -> more optimistic rate.
	if planOne.OutputRates[0] < planTwo.OutputRates[0] {
		t.Fatal("one-hop model should predict at least the two-hop rate")
	}
}
