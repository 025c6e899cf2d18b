package experiments

import (
	"fmt"
	"io"

	"repro/internal/core/optimize"
	"repro/internal/experiments/exp"
	"repro/internal/scenario/sink"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// ValidationScales are the Fig. 8 scaling factors.
var ValidationScales = []float64{1, 1.1, 1.2, 1.5}

// FlowSample is one (estimated, achieved) pair from a validation run.
type FlowSample struct {
	Config   int
	Scale    float64
	Target   float64
	Achieved float64
}

// NetValidationResult aggregates Figs. 7, 8 and 12 data: the same
// injection runs evaluated under the measured-LIR and two-hop conflict
// models.
type NetValidationResult struct {
	LIRSamples     []FlowSample
	TwoHopSamples  []FlowSample
	SkippedConfigs int
}

// netvalidCell is one configuration's validation workload.
type netvalidCell struct {
	sc  Scale
	cfg FlowConfig
}

// netvalidExp executes the §4.5 methodology over generated
// configurations: proportional-fair rates from the model under test are
// injected at each scaling factor and the achieved throughputs recorded.
// Each configuration prepares its own mesh and runs both conflict models
// on it, so configurations fan out as independent cells; the record
// stream carries each configuration's samples in configuration order.
// One experiment feeds Figs. 7, 8 and 12 (the aliases resolve here).
type netvalidExp struct{}

func (netvalidExp) Name() string { return "netvalid" }
func (netvalidExp) Describe() string {
	return "network validation behind Figs. 7/8/12: feasible-region over/under-estimation and the two-hop model comparison"
}

func (netvalidExp) Cells(seed int64, sc Scale) []exp.Cell {
	cfgs := GenerateConfigs(seed, sc.Configs)
	cells := make([]exp.Cell, len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = exp.Cell{Seed: cfg.Seed, Data: netvalidCell{sc: sc, cfg: cfg}}
	}
	return cells
}

func (e netvalidExp) RunCell(c exp.Cell) sink.Record {
	return e.RunCellRecords(c)[0]
}

// RunCellRecords implements exp.RecordStreamer: the configuration's
// sample record followed by one "residual"-series record exposing the
// per-link loss-rate residuals — measured solo network-layer loss
// minus the channel model's frame loss probability on every used
// link. The residual series rides the stream for analysis; Reduce
// folds "cell" records alone.
func (netvalidExp) RunCellRecords(c exp.Cell) []sink.Record {
	d := c.Data.(netvalidCell)
	skipped := 0
	var lir, twoHop []FlowSample
	v, err := PrepareValidation(d.cfg, d.sc)
	if err != nil {
		skipped = 1
		v = nil
	} else {
		for _, model := range []string{"lir", "twohop"} {
			region := v.RegionLIR(LIRThreshold)
			if model == "twohop" {
				region = v.RegionTwoHop()
			}
			runs, err := v.OptimizeAndInject(region, optimize.ProportionalFair, ValidationScales, d.sc)
			if err != nil {
				skipped++
				continue
			}
			for _, run := range runs {
				for s := range run.Target {
					sample := FlowSample{
						Scale:  run.Scale,
						Target: run.Target[s], Achieved: run.Achieved[s],
					}
					if model == "lir" {
						lir = append(lir, sample)
					} else {
						twoHop = append(twoHop, sample)
					}
				}
			}
		}
	}
	fields := []sink.Field{sink.F("skipped", skipped)}
	for _, group := range []struct {
		prefix  string
		samples []FlowSample
	}{{"lir", lir}, {"twohop", twoHop}} {
		scales := make([]float64, len(group.samples))
		targets := make([]float64, len(group.samples))
		achieved := make([]float64, len(group.samples))
		for i, s := range group.samples {
			scales[i], targets[i], achieved[i] = s.Scale, s.Target, s.Achieved
		}
		fields = append(fields,
			sink.F(group.prefix+"_scale", scales),
			sink.F(group.prefix+"_target", targets),
			sink.F(group.prefix+"_achieved", achieved))
	}
	recs := []sink.Record{{Fields: fields}}
	if v != nil {
		recs = append(recs, residualRecord(v, d.cfg))
	}
	return recs
}

// residualRecord renders one prepared configuration's per-link
// loss-rate residuals: the offline-measured solo loss next to the
// channel model's frame loss probability, and their difference.
func residualRecord(v *NetValidation, cfg FlowConfig) sink.Record {
	n := len(v.Links)
	src := make([]float64, n)
	dst := make([]float64, n)
	measured := make([]float64, n)
	model := make([]float64, n)
	residual := make([]float64, n)
	for i, l := range v.Links {
		src[i], dst[i] = float64(l.Src), float64(l.Dst)
		measured[i] = v.Loss[i]
		model[i] = v.Net.Medium.FrameLossProb(l.Src, l.Dst, cfg.Rate, traffic.DefaultPayload)
		residual[i] = measured[i] - model[i]
	}
	return sink.Record{
		Series: "residual",
		Fields: []sink.Field{
			sink.F("links", n),
			sink.F("src", src),
			sink.F("dst", dst),
			sink.F("measured_loss", measured),
			sink.F("model_loss", model),
			sink.F("residual", residual),
		},
	}
}

func (netvalidExp) Reduce(recs <-chan sink.Record) exp.Result {
	var res NetValidationResult
	for rec := range recs {
		if rec.Series != "" && rec.Series != "cell" {
			continue // residual/trace series are analysis-only
		}
		res.SkippedConfigs += rec.Int("skipped")
		for _, group := range []struct {
			prefix string
			out    *[]FlowSample
		}{{"lir", &res.LIRSamples}, {"twohop", &res.TwoHopSamples}} {
			scales := rec.Floats(group.prefix + "_scale")
			targets := rec.Floats(group.prefix + "_target")
			achieved := rec.Floats(group.prefix + "_achieved")
			for i := range scales {
				*group.out = append(*group.out, FlowSample{
					Config: rec.Cell, Scale: scales[i],
					Target: targets[i], Achieved: achieved[i],
				})
			}
		}
	}
	return res
}

// scaleSamples filters samples at a scaling factor.
func scaleSamples(all []FlowSample, scale float64) []FlowSample {
	var out []FlowSample
	for _, s := range all {
		if s.Scale == scale {
			out = append(out, s)
		}
	}
	return out
}

// ratios returns achieved/target for the given samples (clamped at 0
// targets).
func ratios(samples []FlowSample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.Target <= 0 {
			continue
		}
		out = append(out, s.Achieved/s.Target)
	}
	return out
}

// Fig7Stats summarizes the over-estimation scatter at scale 1 under the
// measured-LIR model: the fraction of points within 20% of the estimate
// and the worst-case shortfall.
func (r NetValidationResult) Fig7Stats() (within20 float64, worstErr float64) {
	rs := ratios(scaleSamples(r.LIRSamples, 1))
	if len(rs) == 0 {
		return 0, 0
	}
	var ok int
	worst := 0.0
	for _, v := range rs {
		if v >= 0.8 {
			ok++
		}
		if err := 1 - v; err > worst {
			worst = err
		}
	}
	return float64(ok) / float64(len(rs)), worst
}

// Fig8UnderEstimation returns, per scaling factor, the CDF of
// achieved/target ratios (Fig. 8a) under the measured-LIR model.
func (r NetValidationResult) Fig8UnderEstimation() map[float64]*stats.CDF {
	out := map[float64]*stats.CDF{}
	for _, sc := range ValidationScales {
		out[sc] = stats.NewCDF(ratios(scaleSamples(r.LIRSamples, sc)))
	}
	return out
}

// Fig8ScaledGain returns the CDF of best-scaled achieved over unscaled
// achieved per flow (Fig. 8b): values near 1 mean the model left little
// capacity unused.
func (r NetValidationResult) Fig8ScaledGain() *stats.CDF {
	// Samples appear in the same flow order at every scale, so matching
	// by position within the scale group pairs scaled and unscaled runs.
	byScale := map[float64][]FlowSample{}
	for _, s := range r.LIRSamples {
		byScale[s.Scale] = append(byScale[s.Scale], s)
	}
	unscaled := byScale[1]
	var gains []float64
	for i, s := range unscaled {
		best := s.Achieved
		for _, sc := range ValidationScales[1:] {
			list := byScale[sc]
			if i < len(list) && list[i].Achieved > best {
				best = list[i].Achieved
			}
		}
		if s.Achieved > 0 {
			gains = append(gains, best/s.Achieved)
		}
	}
	return stats.NewCDF(gains)
}

// Fig12Compare returns the per-scale RMSE of achieved vs target for both
// conflict models (Fig. 12b) plus the scale-1 ratio CDFs (Fig. 12a).
func (r NetValidationResult) Fig12Compare() (lirRMSE, twoHopRMSE map[float64]float64, lirCDF, twoHopCDF *stats.CDF) {
	lirRMSE = map[float64]float64{}
	twoHopRMSE = map[float64]float64{}
	for _, sc := range ValidationScales {
		lirRMSE[sc] = normRMSE(scaleSamples(r.LIRSamples, sc))
		twoHopRMSE[sc] = normRMSE(scaleSamples(r.TwoHopSamples, sc))
	}
	lirCDF = stats.NewCDF(ratios(scaleSamples(r.LIRSamples, 1)))
	twoHopCDF = stats.NewCDF(ratios(scaleSamples(r.TwoHopSamples, 1)))
	return
}

// normRMSE is the RMSE of achieved/target ratios from 1.
func normRMSE(samples []FlowSample) float64 {
	rs := ratios(samples)
	ones := make([]float64, len(rs))
	for i := range ones {
		ones[i] = 1
	}
	return stats.RMSE(rs, ones)
}

// Print emits the three figures' series.
func (r NetValidationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figures 7/8/12: network validation (%d LIR samples, %d two-hop samples, %d skipped)\n",
		len(r.LIRSamples), len(r.TwoHopSamples), r.SkippedConfigs)

	within, worst := r.Fig7Stats()
	fmt.Fprintf(w, "Fig 7 (over-estimation, LIR model, scale 1): %.0f%% of points within 20%% of estimate; worst shortfall %.0f%%\n",
		100*within, 100*worst)
	fmt.Fprintln(w, "Fig 7 scatter: target(kbps) achieved(kbps)")
	for _, s := range scaleSamples(r.LIRSamples, 1) {
		fmt.Fprintf(w, "  %10.0f %10.0f\n", s.Target/1e3, s.Achieved/1e3)
	}

	fmt.Fprintln(w, "Fig 8a: CDF of achieved/target per scaling factor (LIR model)")
	for _, sc := range ValidationScales {
		cdf := r.Fig8UnderEstimation()[sc]
		fmt.Fprintf(w, " scale %.1f: median=%.3f p10=%.3f\n", sc, cdf.Quantile(0.5), cdf.Quantile(0.1))
	}
	gain := r.Fig8ScaledGain()
	fmt.Fprintf(w, "Fig 8b: scaled/unscaled achieved: median=%.3f p90=%.3f (paper: ~10%% mean, 20%% worst)\n",
		gain.Quantile(0.5), gain.Quantile(0.9))

	lirR, twoR, lirC, twoC := r.Fig12Compare()
	fmt.Fprintln(w, "Fig 12: LIR vs two-hop interference model")
	fmt.Fprintf(w, " scale-1 ratio median: LIR=%.3f two-hop=%.3f\n", lirC.Quantile(0.5), twoC.Quantile(0.5))
	for _, sc := range ValidationScales {
		fmt.Fprintf(w, " scale %.1f RMSE: LIR=%.3f two-hop=%.3f\n", sc, lirR[sc], twoR[sc])
	}
}
