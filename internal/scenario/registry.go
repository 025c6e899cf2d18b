package scenario

import (
	"fmt"
	"sort"
)

// builtins are the named walk-through scenarios (quickstart, capacity,
// fairness, starvation). Each is a plain Spec literal; `meshopt fig
// <name>` executes it and `meshopt list` enumerates it beside the
// experiment registry (see dist.Catalogue).
var builtins = []*Spec{
	{
		Name:        "quickstart",
		Description: "4-node chain with a lossy middle link: probe, model, optimize, then verify the prop-fair plan with shaped UDP (examples/quickstart as data)",
		Seed:        42,
		Topology: TopologySpec{
			Kind:     "chain",
			Nodes:    4,
			SpacingM: 70,
			Rate:     "11Mbps",
			BER:      []BERSpec{{Src: 1, Dst: 2, BER: 6e-6}},
		},
		Traffic: []FlowSpec{
			{Src: 3, Dst: 0, Transport: "udp"},
			{Src: 1, Dst: 0, Transport: "udp"},
		},
		Controller: &ControllerSpec{
			Objective:     "prop",
			ProbePeriodMs: 100,
			ApplyRC:       true,
		},
		Measure: MeasureSpec{DurationSec: 10},
	},
	{
		Name:        "capacity",
		Description: "online Eq.6 capacity estimation on a lossy IA link under a bursty hidden interferer, vs ground-truth maxUDP and Ad Hoc Probe (examples/capacity as data)",
		Seed:        3,
		Topology: TopologySpec{
			Kind:  "twolink",
			Class: "IA",
			Rate:  "11Mbps",
			BER:   []BERSpec{{Src: 0, Dst: 1, BER: 8e-6}},
		},
		Traffic: []FlowSpec{
			{Src: 2, Dst: 3, Transport: "cbr", RateBps: 4e6, BurstOnSec: 0.3, BurstOffSec: 2.7},
		},
		Measure: MeasureSpec{
			DurationSec: 140,
			Probe: &ProbeSpec{
				Src: 0, Dst: 1,
				PeriodMs:     100,
				Window:       1280,
				MeasureTruth: true,
				AdHoc:        true,
			},
		},
	},
	{
		Name:        "fairness",
		Description: "alpha-fair utility sweep on a 5-node chain: throughput/fairness trade-off of the planned rates (examples/fairness as data)",
		Seed:        11,
		Topology: TopologySpec{
			Kind:     "chain",
			Nodes:    5,
			SpacingM: 70,
			Rate:     "11Mbps",
		},
		Traffic: []FlowSpec{
			{Src: 1, Dst: 0, Transport: "udp"},
			{Src: 2, Dst: 0, Transport: "udp"},
			{Src: 4, Dst: 0, Transport: "udp"},
		},
		Controller: &ControllerSpec{
			ProbePeriodMs: 100,
			ApplyRC:       false,
		},
		Measure: MeasureSpec{DurationSec: 0}, // plan-only
		Sweep: []Axis{
			{Name: "alpha", Values: []float64{0, 0.5, 1, 2, 4, 16}},
		},
	},
	{
		Name:        "starvation",
		Description: "Fig. 13 gateway scenario: 1-hop and 2-hop upstream TCP under noRC/max/prop regimes; prop-fair rate control revives the starved flow (examples/starvation as data)",
		Seed:        7,
		Topology: TopologySpec{
			Kind: "gateway",
			Rate: "1Mbps",
		},
		Traffic: []FlowSpec{
			{Src: 1, Dst: 0, Transport: "tcp"},
			{Src: 2, Dst: 0, Transport: "tcp"},
		},
		Controller: &ControllerSpec{
			Objective: "prop",
			ApplyRC:   true,
		},
		Measure: MeasureSpec{DurationSec: 30},
		Sweep: []Axis{
			{Name: "regime", Values: []float64{0, 1, 2}},
		},
	},
}

// Lookup returns the built-in scenario registered under name.
func Lookup(name string) (*Spec, bool) {
	for _, s := range builtins {
		if s.Name == name {
			copy := *s
			return &copy, true
		}
	}
	return nil, false
}

// Names lists the registered scenario names, sorted.
func Names() []string {
	out := make([]string, len(builtins))
	for i, s := range builtins {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

func init() {
	// A registry entry that fails its own schema is a programming error;
	// catch it at process start rather than on first use.
	for _, s := range builtins {
		if err := s.Validate(); err != nil {
			panic(fmt.Sprintf("scenario: invalid builtin: %v", err))
		}
	}
}
