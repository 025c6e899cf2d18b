// Capacity: online capacity estimation on a lossy link (§5). Shows the
// ground-truth maxUDP throughput, the Eq. 6 estimate driven by the
// channel-loss estimator under interference, and the Ad Hoc Probe
// baseline, which tracks nominal throughput and misses the loss cost.
//
// Run with: go run ./examples/capacity
package main

import (
	"fmt"

	"repro/internal/core/capacity"
	"repro/internal/measure"
	"repro/internal/phy"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	// An IA pair: link 0->1 is the link under test, link 2->3 is a
	// hidden interferer that corrupts some probes with collisions.
	nw := topology.TwoLink(3, topology.IA, phy.Rate11, phy.Rate11)
	nw.Medium.SetBER(0, 1, 8e-6) // a genuinely lossy channel

	fmt.Println("phase 1: ground truth (backlogged maxUDP, link alone)")
	truth := measure.MaxUDP(nw.Network, nw.Link1, traffic.DefaultPayload, 10*sim.Second)
	fmt.Printf("  maxUDP = %.2f Mb/s, residual loss %.3f\n",
		truth.ThroughputBps/1e6, truth.LossRate)

	fmt.Println("phase 2: online estimation during operation (with interference)")
	rec := probe.NewRecorder(nw.Node(1))
	pr := probe.NewProber(nw.Sim, nw.Node(0), phy.Rate11, traffic.DefaultPayload)
	pr.SetPeriod(100 * sim.Millisecond)
	pr.Start()

	// The interferer is bursty (300 ms bursts every 3 s) — the loss
	// pattern the estimator is designed to filter (§5.3).
	nw.InstallDirectRoute(nw.Link2)
	interferer := traffic.NewCBR(nw.Sim, nw.Node(2), 9, 3, traffic.DefaultPayload, 4e6)
	var cycle func()
	on := false
	cycle = func() {
		if on {
			interferer.Stop()
			nw.Sim.Schedule(nw.Sim.Now()+2700*sim.Millisecond, cycle)
		} else {
			interferer.Start()
			nw.Sim.Schedule(nw.Sim.Now()+300*sim.Millisecond, cycle)
		}
		on = !on
	}
	cycle()

	nw.InstallDirectRoute(nw.Link1)
	adhoc := probe.NewAdHocProbe(nw.Sim, nw.Node(0), 1, traffic.DefaultPayload,
		200, 400*sim.Millisecond)
	adhoc.Start(nw.Node(1))

	nw.Sim.Run(nw.Sim.Now() + 140*sim.Second) // fill a 1280-probe window
	pr.Stop()
	interferer.Stop()
	adhoc.Stop()

	est, ok := rec.Estimate(0, 1280)
	if !ok {
		panic("no probes received")
	}
	rawLoss := rec.Trace(0, probe.ClassData, 1280).MeasuredLoss()
	online := capacity.MaxUDP(est.Pl, phy.Rate11, traffic.DefaultPayload)
	nominal := capacity.NominalGoodput(phy.Rate11, traffic.DefaultPayload)

	fmt.Printf("  raw probe loss     %.3f (channel + collisions)\n", rawLoss)
	fmt.Printf("  estimated channel  %.3f (collisions filtered out)\n", est.PData)
	fmt.Printf("  Eq.6 capacity      %.2f Mb/s\n", online/1e6)
	fmt.Printf("  Ad Hoc Probe       %.2f Mb/s\n", adhoc.EstimateBps()/1e6)
	fmt.Printf("  nominal            %.2f Mb/s\n", nominal/1e6)
	fmt.Printf("\nerror vs maxUDP: online %+.0f%%, Ad Hoc Probe %+.0f%%\n",
		100*(online-truth.ThroughputBps)/truth.ThroughputBps,
		100*(adhoc.EstimateBps()-truth.ThroughputBps)/truth.ThroughputBps)
}
