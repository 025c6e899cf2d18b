// Package scenario is the declarative workload engine: a JSON scenario
// spec describes a topology, PHY tweaks, a traffic matrix, controller
// settings, a measurement phase and sweep axes; the engine expands the
// sweep into independent simulation cells, fans them over the parallel
// experiment runner, and streams per-cell records into a result sink in
// deterministic cell order (bit-identical output for any worker count).
//
// A registry of named built-in scenarios holds the walk-through
// workloads as data, and the fig10/fig14 entries drive the ported figure
// suites through the same spec + sink plumbing (see cmd/meshopt's `fig`
// and `list` subcommands).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/broadcast"
	"repro/internal/experiments/exp"
	"repro/internal/phy"
)

// Spec is one declarative scenario. The zero value is invalid; specs
// come from Parse, the registry, or literal construction followed by
// Validate.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed is the base simulation seed; a "seed" sweep axis overrides it
	// per cell.
	Seed     int64        `json:"seed,omitempty"`
	Topology TopologySpec `json:"topology"`
	PHY      *PHYSpec     `json:"phy,omitempty"`
	// Traffic is the traffic matrix; entry order assigns flow ids.
	Traffic    []FlowSpec      `json:"traffic,omitempty"`
	Controller *ControllerSpec `json:"controller,omitempty"`
	Measure    MeasureSpec     `json:"measure"`
	// Sweep axes expand into the cross product of their values, one
	// simulation cell per point, last axis fastest.
	Sweep []Axis `json:"sweep,omitempty"`
	// Figure delegates the run to the figure suite registered as
	// "fig<n>" in the experiment registry instead of the declarative
	// engine; the other workload fields are ignored.
	Figure int `json:"figure,omitempty"`
	// Broadcast switches the workload to the event-driven
	// dissemination engine: the topology is built as usual, then swept
	// as (root × relay policy × repetition) cells. Traffic, controller,
	// measure and sweep fields must be absent.
	Broadcast *BroadcastSpec `json:"broadcast,omitempty"`
	// Trace turns on per-link delivery capture: every cell records its
	// channel decisions and appends them as "trace"-series records
	// after its result rows (see internal/trace). Figure-delegating
	// specs reject it; use `meshopt trace record fig<n>` instead.
	Trace bool `json:"trace,omitempty"`
}

// BroadcastSpec parameterizes a broadcast dissemination sweep (spec
// kind "broadcast"); see internal/broadcast for the engine.
type BroadcastSpec struct {
	// Policies lists relay policies by name: "flood", "tree",
	// "gossip" / "gossip(p)", "krandom" / "krandom(k)".
	Policies []string `json:"policies"`
	// GossipP and K supply the parameters for the bare "gossip" and
	// "krandom" forms (defaults 0.5 and 2).
	GossipP float64 `json:"gossip_p,omitempty"`
	K       int     `json:"k,omitempty"`
	// Roots lists the injection nodes; empty picks {0, n/3, 2n/3}.
	Roots []int `json:"roots,omitempty"`
	// Repetitions is the per-(root,policy) repeat count; 0 uses the
	// run scale's iteration count.
	Repetitions int `json:"repetitions,omitempty"`
	// PayloadBytes sizes the broadcast message (default 1024).
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// MaliciousFraction of nodes receive the message but never relay.
	MaliciousFraction float64 `json:"malicious_fraction,omitempty"`
	// Churn schedules seeded absence windows on a node fraction.
	Churn *ChurnSpec `json:"churn,omitempty"`
}

// ChurnSpec schedules churned nodes: each selected node is absent —
// missing frames entirely — for one uniform interval per run. Times
// are simulated seconds; zero timing fields take the engine defaults.
type ChurnSpec struct {
	Fraction     float64 `json:"fraction"`
	StartMaxSec  float64 `json:"start_max_sec,omitempty"`
	AbsentMinSec float64 `json:"absent_min_sec,omitempty"`
	AbsentMaxSec float64 `json:"absent_max_sec,omitempty"`
}

// TopologySpec selects and parameterizes the mesh under test.
type TopologySpec struct {
	// Kind is one of chain, grid, random, mesh18, twolink, gateway,
	// explicit.
	Kind string `json:"kind"`
	// Nodes is the node count for chain/grid/random.
	Nodes int `json:"nodes,omitempty"`
	// SpacingM is the chain/grid node spacing in metres.
	SpacingM float64 `json:"spacing_m,omitempty"`
	// SizeM is the side of the square the random layout draws from.
	SizeM float64 `json:"size_m,omitempty"`
	// Positions lists explicit node coordinates (kind "explicit").
	Positions []Position `json:"positions,omitempty"`
	// Class is the twolink interference class: CS, IA or NF.
	Class string `json:"class,omitempty"`
	// Rate is the default modulation, by name ("1Mbps", "11Mbps", ...).
	Rate string `json:"rate"`
	// LayoutSeed separates layout randomness (mesh18/random placement)
	// from the simulation seed; 0 means use the cell's seed.
	LayoutSeed int64 `json:"layout_seed,omitempty"`
	// BER pins per-directed-link channel bit error rates.
	BER []BERSpec `json:"ber,omitempty"`
}

// Position is a node coordinate in metres.
type Position struct {
	X float64 `json:"x"`
	Y float64 `json:"y,omitempty"`
}

// BERSpec is one directed link's channel bit error rate.
type BERSpec struct {
	Src int     `json:"src"`
	Dst int     `json:"dst"`
	BER float64 `json:"ber"`
}

// PHYSpec overrides radio parameters. Only topologies built directly
// from positions (grid, random, explicit) accept overrides; the packaged
// geometries (chain, mesh18, twolink, gateway) are calibrated against
// the default config and reject them.
type PHYSpec struct {
	TxPowerDBm  *float64 `json:"tx_power_dbm,omitempty"`
	FadeSigmaDB *float64 `json:"fade_sigma_db,omitempty"`
	NoiseDBm    *float64 `json:"noise_dbm,omitempty"`
}

// FlowSpec is one traffic-matrix entry.
type FlowSpec struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Transport is tcp, udp or cbr. tcp/udp flows are managed by the
	// controller when one is configured; cbr flows are unmanaged
	// background traffic at RateBps.
	Transport string `json:"transport"`
	// RateBps is the cbr offered rate (and the udp rate when no
	// controller plans one; 0 means backlogged).
	RateBps float64 `json:"rate_bps,omitempty"`
	// BurstOnSec/BurstOffSec cycle a cbr source on and off, modelling
	// bursty interferers; both zero means always on.
	BurstOnSec  float64 `json:"burst_on_sec,omitempty"`
	BurstOffSec float64 `json:"burst_off_sec,omitempty"`
}

// ControllerSpec runs the paper's online optimization loop before
// traffic starts: probe, estimate, model, optimize, and (optionally)
// apply the computed rate limits.
type ControllerSpec struct {
	// Objective is max, prop or maxmin (default prop); Alpha overrides
	// it with an explicit alpha-fair parameter.
	Objective string   `json:"objective,omitempty"`
	Alpha     *float64 `json:"alpha,omitempty"`
	// ProbePeriodMs overrides the probing period (default 500 ms).
	ProbePeriodMs float64 `json:"probe_period_ms,omitempty"`
	// ProbeWindow overrides the estimator window S in probes.
	ProbeWindow int `json:"probe_window,omitempty"`
	// ApplyRC applies the plan's rate limits to the traffic; false runs
	// the plan's routes with unshaped sources (the noRC baselines).
	ApplyRC bool `json:"apply_rc"`
}

// ProbeSpec adds an online estimation phase on one link during the
// measurement run.
type ProbeSpec struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
	// PeriodMs is the probing period (default 100 ms).
	PeriodMs float64 `json:"period_ms,omitempty"`
	// Window is the estimator window S in probes (default 200).
	Window int `json:"window,omitempty"`
	// MeasureTruth measures ground-truth maxUDP on the link (solo,
	// before traffic starts) for comparison.
	MeasureTruth bool `json:"measure_truth,omitempty"`
	// AdHoc runs an Ad Hoc Probe packet-pair estimator alongside.
	AdHoc bool `json:"adhoc,omitempty"`
}

// MeasureSpec is the measurement phase.
type MeasureSpec struct {
	// DurationSec runs traffic for this long; 0 is plan-only (the
	// controller's output is the result).
	DurationSec float64    `json:"duration_sec"`
	Probe       *ProbeSpec `json:"probe,omitempty"`
}

// Axis is one sweep dimension. Supported names: "seed" (overrides the
// cell seed), "alpha" (overrides the controller objective), "regime"
// (0 = noRC unshaped, 1 = RC max-throughput, 2 = RC proportional-fair).
type Axis struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Parse decodes and validates a JSON scenario spec. Unknown fields are
// rejected so schema drift fails loudly rather than silently ignoring a
// misspelled knob.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// topologyKinds enumerates the known topology families and whether they
// accept PHY overrides (position-built ones do).
var topologyKinds = map[string]bool{
	"chain":    false,
	"grid":     true,
	"random":   true,
	"mesh18":   false,
	"twolink":  false,
	"gateway":  false,
	"explicit": true,
}

// NodeCount returns the number of nodes the topology will have.
func (t *TopologySpec) NodeCount() int {
	switch t.Kind {
	case "mesh18":
		return 18
	case "twolink":
		return 4
	case "gateway":
		return 3
	case "explicit":
		return len(t.Positions)
	default:
		return t.Nodes
	}
}

// parseRate resolves a modulation by its String() name.
func parseRate(name string) (phy.Rate, error) {
	for r := phy.Rate(0); ; r++ {
		if !r.Valid() {
			return 0, fmt.Errorf("unknown rate %q", name)
		}
		if r.String() == name {
			return r, nil
		}
	}
}

// Validate checks the spec against the schema rules the engine assumes.
func (s *Spec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: "+format, append([]any{s.Name}, args...)...)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if s.Figure != 0 {
		if _, ok := exp.Find(fmt.Sprintf("fig%d", s.Figure)); !ok {
			return fail("figure %d has no registered experiment", s.Figure)
		}
		if s.Trace {
			return fail("trace is not supported on figure-delegating specs; use `meshopt trace record fig%d`", s.Figure)
		}
		return nil
	}

	t := &s.Topology
	phyOK, known := topologyKinds[t.Kind]
	if !known {
		return fail("unknown topology kind %q", t.Kind)
	}
	if _, err := parseRate(t.Rate); err != nil {
		return fail("topology: %v", err)
	}
	switch t.Kind {
	case "chain", "grid":
		if t.Nodes < 2 {
			return fail("topology %s needs nodes >= 2", t.Kind)
		}
		if t.SpacingM <= 0 {
			return fail("topology %s needs spacing_m > 0", t.Kind)
		}
	case "random":
		if t.Nodes < 2 || t.SizeM <= 0 {
			return fail("topology random needs nodes >= 2 and size_m > 0")
		}
	case "twolink":
		switch t.Class {
		case "CS", "IA", "NF":
		default:
			return fail("topology twolink needs class CS, IA or NF (got %q)", t.Class)
		}
	case "explicit":
		if len(t.Positions) < 2 {
			return fail("topology explicit needs >= 2 positions")
		}
	}
	n := t.NodeCount()
	for _, b := range t.BER {
		if b.Src < 0 || b.Src >= n || b.Dst < 0 || b.Dst >= n || b.Src == b.Dst {
			return fail("ber entry %d->%d out of range for %d nodes", b.Src, b.Dst, n)
		}
		if b.BER < 0 || b.BER >= 1 {
			return fail("ber %g on %d->%d out of [0,1)", b.BER, b.Src, b.Dst)
		}
	}
	if s.PHY != nil && !phyOK {
		return fail("phy overrides are only supported on position-built topologies (grid, random, explicit), not %q", t.Kind)
	}

	if b := s.Broadcast; b != nil {
		if len(s.Traffic) > 0 || s.Controller != nil || s.Measure != (MeasureSpec{}) || len(s.Sweep) > 0 {
			return fail("broadcast cannot be combined with traffic, controller, measure or sweep fields")
		}
		if len(b.Policies) == 0 {
			return fail("broadcast needs at least one relay policy")
		}
		if b.GossipP < 0 || b.GossipP > 1 {
			return fail("broadcast gossip_p %g out of [0,1]", b.GossipP)
		}
		if b.K < 0 {
			return fail("broadcast k must be non-negative")
		}
		for _, name := range b.Policies {
			if _, err := broadcast.ParsePolicy(name, b.GossipP, b.K); err != nil {
				return fail("broadcast: %v", err)
			}
		}
		for _, r := range b.Roots {
			if r < 0 || r >= n {
				return fail("broadcast root %d out of range for %d nodes", r, n)
			}
		}
		if b.Repetitions < 0 {
			return fail("broadcast repetitions must be non-negative")
		}
		if b.PayloadBytes < 0 {
			return fail("broadcast payload_bytes must be non-negative")
		}
		if b.MaliciousFraction < 0 || b.MaliciousFraction > 1 {
			return fail("broadcast malicious_fraction %g out of [0,1]", b.MaliciousFraction)
		}
		if c := b.Churn; c != nil {
			if c.Fraction < 0 || c.Fraction > 1 {
				return fail("broadcast churn fraction %g out of [0,1]", c.Fraction)
			}
			if c.StartMaxSec < 0 || c.AbsentMinSec < 0 || c.AbsentMaxSec < 0 {
				return fail("broadcast churn times must be non-negative")
			}
			if c.AbsentMaxSec > 0 && c.AbsentMaxSec < c.AbsentMinSec {
				return fail("broadcast churn absent_max_sec below absent_min_sec")
			}
		}
		return nil
	}

	managed := 0
	for i, f := range s.Traffic {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n || f.Src == f.Dst {
			return fail("traffic[%d] %d->%d out of range for %d nodes", i, f.Src, f.Dst, n)
		}
		switch f.Transport {
		case "tcp", "udp":
			managed++
		case "cbr":
			if f.RateBps <= 0 {
				return fail("traffic[%d]: cbr needs rate_bps > 0", i)
			}
		default:
			return fail("traffic[%d]: unknown transport %q", i, f.Transport)
		}
		if f.BurstOnSec < 0 || f.BurstOffSec < 0 {
			return fail("traffic[%d]: negative burst durations", i)
		}
		if (f.BurstOnSec > 0) != (f.BurstOffSec > 0) {
			return fail("traffic[%d]: burst_on_sec and burst_off_sec must be set together", i)
		}
	}

	if c := s.Controller; c != nil {
		if managed == 0 {
			return fail("controller configured but no tcp/udp flows to manage")
		}
		tr := s.Traffic[0].Transport
		for i, f := range s.Traffic {
			if f.Transport == "cbr" {
				return fail("traffic[%d]: cbr background traffic cannot be mixed with a controller", i)
			}
			if f.Transport != tr {
				return fail("controller-managed flows must share one transport (got %s and %s)", tr, f.Transport)
			}
		}
		switch c.Objective {
		case "", "max", "prop", "maxmin":
		default:
			return fail("controller objective %q (want max, prop or maxmin)", c.Objective)
		}
		if c.Alpha != nil && (*c.Alpha < 0 || math.IsNaN(*c.Alpha)) {
			return fail("controller alpha %g out of range", *c.Alpha)
		}
		if c.ProbePeriodMs < 0 || c.ProbeWindow < 0 {
			return fail("controller probe settings must be non-negative")
		}
	}

	if s.Measure.DurationSec < 0 {
		return fail("measure duration_sec must be non-negative")
	}
	if p := s.Measure.Probe; p != nil {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n || p.Src == p.Dst {
			return fail("probe link %d->%d out of range for %d nodes", p.Src, p.Dst, n)
		}
		if p.PeriodMs < 0 || p.Window < 0 {
			return fail("probe settings must be non-negative")
		}
	}
	if s.Measure.DurationSec == 0 && s.Measure.Probe == nil && s.Controller == nil {
		return fail("nothing to do: no measurement duration, probe phase or controller")
	}

	for _, ax := range s.Sweep {
		if len(ax.Values) == 0 {
			return fail("sweep axis %q has no values", ax.Name)
		}
		switch ax.Name {
		case "seed":
		case "alpha":
			if s.Controller == nil {
				return fail("alpha sweep needs a controller")
			}
		case "regime":
			if s.Controller == nil {
				return fail("regime sweep needs a controller")
			}
			for _, v := range ax.Values {
				if v != 0 && v != 1 && v != 2 {
					return fail("regime values must be 0 (noRC), 1 (max) or 2 (prop); got %g", v)
				}
			}
		default:
			return fail("unknown sweep axis %q (want seed, alpha or regime)", ax.Name)
		}
	}
	return nil
}
