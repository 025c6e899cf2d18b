package experiments

import (
	"io"
	"testing"

	"repro/internal/experiments/exp"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// run executes e through the engine and returns its typed result.
func run[R any](t testing.TB, e exp.Experiment, seed int64, sc Scale) R {
	t.Helper()
	res, err := exp.Run(e, seed, sc, exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.(R)
}

// tinyScale trims Quick further so the whole figure suite stays fast in
// unit tests; benches use Quick and the CLI uses Paper.
func tinyScale() Scale {
	sc := exp.Quick()
	sc.PhaseDur = 1500 * sim.Millisecond
	sc.Pairs = 6
	sc.Configs = 2
	sc.GridN = 4
	sc.ProbeWindow = 150
	sc.ProbePeriod = 30 * sim.Millisecond
	sc.TrafficDur = 4 * sim.Second
	return sc
}

func TestSamplePairsDisjointAndDeterministic(t *testing.T) {
	nw := topology.Mesh18(1)
	a := SamplePairs(nw, phy.Rate11, 10, 42)
	b := SamplePairs(nw, phy.Rate11, 10, 42)
	if len(a) == 0 {
		t.Fatal("no pairs sampled")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
		p := a[i]
		if p.L1.Src == p.L2.Src || p.L1.Dst == p.L2.Dst ||
			p.L1.Src == p.L2.Dst || p.L1.Dst == p.L2.Src {
			t.Fatalf("pair %v shares a node", p)
		}
	}
}

func TestGenerateConfigsShape(t *testing.T) {
	cfgs := GenerateConfigs(7, 6)
	if len(cfgs) != 6 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	sawRate1 := false
	for _, c := range cfgs {
		if len(c.Flows) < 2 || len(c.Flows) > 6 {
			t.Fatalf("config has %d flows", len(c.Flows))
		}
		if c.Rate == phy.Rate1 {
			sawRate1 = true
		}
	}
	if !sawRate1 {
		t.Fatal("no 1 Mb/s configs generated")
	}
}

func TestFig3LIRDistributionShape(t *testing.T) {
	sc := tinyScale()
	sc.Pairs = 8
	res := run[Fig3Result](t, fig3Exp{}, 3, sc)
	if len(res.LIR1) < 4 || len(res.LIR11) < 4 {
		t.Fatalf("too few pairs measured: %d/%d", len(res.LIR1), len(res.LIR11))
	}
	for _, v := range append(res.LIR1, res.LIR11...) {
		if v < 0 || v > 1.0001 {
			t.Fatalf("LIR %v out of range", v)
		}
	}
	// The population must contain both interfering and independent
	// pairs (the paper's bimodality).
	lo, hi := res.Bimodality()
	if lo == 0 {
		t.Error("no clearly interfering pairs found")
	}
	if hi == 0 {
		t.Error("no clearly independent pairs found")
	}
	res.Print(io.Discard)
}

func TestFig4CSAccurateIAFNs(t *testing.T) {
	sc := tinyScale()
	res := run[Fig4Result](t, fig4Exp{}, 5, sc)
	if len(res.Outcomes) == 0 {
		t.Fatal("no outcomes")
	}
	by := res.ByClass()
	cs, ia := by[topology.CS], by[topology.IA]
	// CS pairs: model accurate -> small FP and FN.
	if cs[0].Mean > 0.15 {
		t.Errorf("CS FP mean %v too high", cs[0].Mean)
	}
	if cs[1].Mean > 0.25 {
		t.Errorf("CS FN mean %v too high", cs[1].Mean)
	}
	// FPs must stay low everywhere (conservative model).
	for _, c := range []topology.Class{topology.CS, topology.IA, topology.NF} {
		if by[c][0].Mean > 0.2 {
			t.Errorf("%v FP mean %v too high", c, by[c][0].Mean)
		}
	}
	// IA shows substantial FNs from capture.
	if ia[1].Mean < 0.05 {
		t.Errorf("IA FN mean %v suspiciously low (no capture?)", ia[1].Mean)
	}
	// The three-point model removes most IA/NF FNs.
	fn2, fn3 := res.ThreePointFNReduction()
	if fn3 > fn2*0.5+0.02 {
		t.Errorf("three-point model did not reduce FNs: %v -> %v", fn2, fn3)
	}
	res.Print(io.Discard)
}

func TestFig5CaptureRegionRecovered(t *testing.T) {
	sc := tinyScale()
	sc.GridN = 5
	res := run[Fig5Result](t, fig5Exp{}, 3, sc)
	if res.MissedFraction < 0.1 {
		t.Fatalf("missed fraction %v too small for the IA example", res.MissedFraction)
	}
	if res.RecoveredFraction < 0.6 {
		t.Fatalf("three-point model recovered only %v", res.RecoveredFraction)
	}
	res.Print(io.Discard)
}

func TestFig6ThresholdMonotonicity(t *testing.T) {
	lirs := []float64{0.3, 0.45, 0.55, 0.6, 0.65, 0.8, 0.9, 0.96, 0.97, 0.99}
	res := LIRThresholdSweep(lirs)
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].FN < res.Rows[i-1].FN-1e-12 {
			t.Fatalf("FN not nondecreasing in threshold: %+v", res.Rows)
		}
		if res.Rows[i].FP > res.Rows[i-1].FP+1e-12 {
			t.Fatalf("FP not nonincreasing in threshold: %+v", res.Rows)
		}
	}
	res.Print(io.Discard)
}

func TestNetValidationShape(t *testing.T) {
	sc := tinyScale()
	sc.Configs = 2
	res := run[NetValidationResult](t, netvalidExp{}, 11, sc)
	if len(res.LIRSamples) == 0 {
		t.Fatal("no validation samples")
	}
	// Over-estimation must be rare: most scale-1 points near or above
	// 0.8 of target (the paper's y=0.8x line).
	within, _ := r7(res)
	if within < 0.6 {
		t.Fatalf("only %.0f%% of points within 20%% of estimate", 100*within)
	}
	// Scaled runs must not increase achieved throughput dramatically
	// (no gross under-estimation).
	gain := res.Fig8ScaledGain()
	if g := gain.Quantile(0.5); g > 1.5 {
		t.Fatalf("median scaled gain %v indicates heavy under-estimation", g)
	}
	res.Print(io.Discard)
}

func r7(res NetValidationResult) (float64, float64) { return res.Fig7Stats() }

func TestFig9CasesDistinct(t *testing.T) {
	sc := tinyScale()
	sc.ProbeWindow = 400
	sc.ProbePeriod = 25 * sim.Millisecond
	res := run[Fig9Result](t, fig9Exp{}, 2, sc)
	// Uniform case: measured p close to channel truth.
	if res.Uniform.P > res.Uniform.Truth+0.1 {
		t.Fatalf("uniform case has unexplained loss: p=%v truth=%v", res.Uniform.P, res.Uniform.Truth)
	}
	// Interfered case: collisions inflate p well above truth, and the
	// estimate stays much closer to truth than p is.
	c := res.Interfed
	if c.P < c.Truth+0.03 {
		t.Fatalf("interferer added no loss: p=%v truth=%v", c.P, c.Truth)
	}
	if est, raw := abs(c.Est.Pch-c.Truth), abs(c.P-c.Truth); est > raw {
		t.Fatalf("estimator (err %v) no better than raw loss (err %v)", est, raw)
	}
	res.Print(io.Discard)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFig10ErrorsBounded(t *testing.T) {
	sc := tinyScale()
	sc.ProbeWindow = 300
	res := run[Fig10Result](t, fig10Exp{}, 4, sc)
	if len(res.Errors) < 5 {
		t.Fatalf("only %d links scored", len(res.Errors))
	}
	if rmse := res.RMSEByS[sc.ProbeWindow]; rmse > 0.15 {
		t.Fatalf("full-window RMSE %v too high", rmse)
	}
	res.Print(io.Discard)
}

func TestFig11AdHocOvershootsOnline(t *testing.T) {
	sc := tinyScale()
	sc.Pairs = 6
	sc.ProbeWindow = 200
	res := run[Fig11Result](t, fig11Exp{}, 6, sc)
	if len(res.Links) < 3 {
		t.Fatalf("only %d links measured", len(res.Links))
	}
	if res.OnlineRMSE >= res.AdHocRMSE {
		t.Fatalf("online estimator (RMSE %v) must beat Ad Hoc Probe (%v)",
			res.OnlineRMSE, res.AdHocRMSE)
	}
	res.Print(io.Discard)
}

func TestFig13StarvationAndRecovery(t *testing.T) {
	sc := tinyScale()
	sc.TrafficDur = 10 * sim.Second
	sc.Iterations = 1
	res := run[Fig13Result](t, fig13Exp{}, 3, sc)
	no := res.PerRegime[NoRC]
	prop := res.PerRegime[RCProp]
	if no[0].Mean == 0 {
		t.Fatal("noRC 1-hop flow dead")
	}
	// Starvation without RC; revived under proportional fairness.
	if no[1].Mean > 0.4*no[0].Mean {
		t.Errorf("noRC did not starve the 2-hop flow: %v vs %v", no[1].Mean, no[0].Mean)
	}
	if prop[1].Mean < 2*no[1].Mean {
		t.Errorf("TCP-Prop did not revive the 2-hop flow: %v -> %v", no[1].Mean, prop[1].Mean)
	}
	res.Print(io.Discard)
}

func TestFig14SuiteMetrics(t *testing.T) {
	sc := tinyScale()
	sc.Configs = 2
	sc.Iterations = 2
	sc.TrafficDur = 6 * sim.Second
	res := run[Fig14Result](t, fig14Exp{}, 9, sc)
	if len(res.RatioProp) == 0 {
		t.Fatal("no configs completed")
	}
	for _, v := range res.RatioProp {
		if v <= 0 {
			t.Fatalf("degenerate prop ratio %v", v)
		}
	}
	if len(res.Feasibility) == 0 || len(res.StabilityRC) == 0 {
		t.Fatal("missing feasibility/stability samples")
	}
	res.Print(io.Discard)
}
