// Package repro's root benchmarks regenerate every evaluation figure of
// the paper at Quick scale, one bench per figure (Figs. 7/8/12 share one
// network-validation run and one bench), plus ablation benches for the
// design choices called out in DESIGN.md.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/core/capacity"
	"repro/internal/core/conflict"
	"repro/internal/core/feasibility"
	"repro/internal/core/optimize"
	"repro/internal/experiments"
	"repro/internal/experiments/exp"
	"repro/internal/measure"
	"repro/internal/node"
	"repro/internal/phy"
	"repro/internal/scenario/sink"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// benchScale trims Quick so each figure bench iteration stays in the
// hundreds of milliseconds; `meshopt -scale paper` runs the full size.
func benchScale() experiments.Scale {
	sc := exp.Quick()
	sc.PhaseDur = 1 * sim.Second
	sc.Pairs = 4
	sc.Configs = 1
	sc.Iterations = 1
	sc.GridN = 3
	sc.ProbeWindow = 120
	sc.TrafficDur = 3 * sim.Second
	return sc
}

// runFig runs a registered figure suite through the experiment engine
// and returns its typed result.
func runFig[R any](b *testing.B, name string, seed int64, sc experiments.Scale) R {
	b.Helper()
	e, ok := exp.Find(name)
	if !ok {
		b.Fatalf("%s not registered", name)
	}
	res, err := exp.Run(e, seed, sc, exp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return res.(R)
}

func BenchmarkFig03LIRCDF(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[experiments.Fig3Result](b, "fig3", int64(i+1), sc)
		res.Print(io.Discard)
	}
}

func BenchmarkFig04FPFN(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[experiments.Fig4Result](b, "fig4", int64(i+1), sc)
		res.Print(io.Discard)
	}
}

func BenchmarkFig05ThreePoint(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[experiments.Fig5Result](b, "fig5", 3, sc)
		res.Print(io.Discard)
	}
}

func BenchmarkFig06LIRThreshold(b *testing.B) {
	lirs := []float64{0.2, 0.35, 0.5, 0.55, 0.62, 0.8, 0.9, 0.93, 0.96, 0.975, 0.99, 1.0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.LIRThresholdSweep(lirs)
		res.Print(io.Discard)
	}
}

// BenchmarkNetValidation runs the shared Figs. 7/8/12 network
// validation suite: routing, offline measurement and optimization per
// cell, then the three figures' analyses.
func BenchmarkNetValidation(b *testing.B) {
	b.ReportAllocs()
	defer reportEvents(b)()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[experiments.NetValidationResult](b, "netvalid", 11, sc)
		res.Print(io.Discard)
	}
}

func BenchmarkFig09EstimatorCases(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	sc.ProbeWindow = 300
	for i := 0; i < b.N; i++ {
		res := runFig[experiments.Fig9Result](b, "fig9", 2, sc)
		res.Print(io.Discard)
	}
}

func BenchmarkFig10LossRMSE(b *testing.B) {
	b.ReportAllocs()
	defer reportEvents(b)()
	sc := benchScale()
	sc.ProbeWindow = 250
	for i := 0; i < b.N; i++ {
		res := runFig[experiments.Fig10Result](b, "fig10", 4, sc)
		res.Print(io.Discard)
	}
}

// BenchmarkFig10Trace runs fig 10 through the experiment engine with
// per-link delivery capture off vs on. The off case is the regression
// guard: the Tracer hook must cost nothing when no tracer is installed.
func BenchmarkFig10Trace(b *testing.B) {
	e, ok := exp.Find("fig10")
	if !ok {
		b.Fatal("fig10 not registered")
	}
	sc := benchScale()
	sc.ProbeWindow = 250
	for _, mode := range []string{"capture=off", "capture=on"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			opts := exp.Options{}
			if mode == "capture=on" {
				opts.Capture = func(exp.Cell) exp.Capture { return trace.NewCellCapture() }
			}
			for i := 0; i < b.N; i++ {
				opts.Sink = sink.NewJSONL(io.Discard)
				if _, err := exp.Run(e, 4, sc, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig11CapacityVsAdhoc(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[experiments.Fig11Result](b, "fig11", 6, sc)
		res.Print(io.Discard)
	}
}

func BenchmarkFig13Starvation(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	sc.TrafficDur = 8 * sim.Second
	for i := 0; i < b.N; i++ {
		res := runFig[experiments.Fig13Result](b, "fig13", 3, sc)
		res.Print(io.Discard)
	}
}

func BenchmarkFig14TCPSuite(b *testing.B) {
	b.ReportAllocs()
	defer reportEvents(b)()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[experiments.Fig14Result](b, "fig14", 9, sc)
		res.Print(io.Discard)
	}
}

// BenchmarkBroadcast runs the full broadcast dissemination sweep
// (root × policy × rep at quick scale, adversaries and churn on)
// through the experiment engine with a streaming JSONL sink — the same
// path `meshopt fig broadcast` takes.
func BenchmarkBroadcast(b *testing.B) {
	b.ReportAllocs()
	w := broadcast.Default()
	sc := exp.Quick()
	for i := 0; i < b.N; i++ {
		snk := sink.NewJSONL(io.Discard)
		res, err := exp.Run(w, 4, sc, exp.Options{Sink: snk})
		if err != nil {
			b.Fatal(err)
		}
		if err := snk.Close(); err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// warmSubmitSpec is a cheap broadcast sweep with many records: 8 roots ×
// 4 policies × 80 repetitions = 2 560 cells ≈ 10 k records ≈ 1 MB.
const warmSubmitSpec = `{"name":"bench-warm-submit",
 "topology":{"kind":"explicit","rate":"11Mbps","positions":[
  {"x":0,"y":0},{"x":70,"y":0},{"x":140,"y":0},{"x":210,"y":0},
  {"x":0,"y":70},{"x":70,"y":70},{"x":140,"y":70},{"x":210,"y":70}]},
 "broadcast":{"policies":["flood","tree","gossip(0.7)","krandom(3)"],
  "roots":[0,1,2,3,4,5,6,7],"repetitions":80}}`

// BenchmarkServeWarmSubmit times POST /v1/jobs for a job that is done
// and resident over a ≈ 10 k-record cache entry — the request an online
// consumer repeats most. The entry's size must not show in the cost.
func BenchmarkServeWarmSubmit(b *testing.B) {
	b.ReportAllocs()
	srv, err := serve.New(serve.Options{CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(context.Background())
	}()
	body := `{"spec":` + warmSubmitSpec + `,"seed":1}`
	submit := func() (id string, created bool) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var r struct {
			ID      string `json:"id"`
			Created bool   `json:"created"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("POST /v1/jobs: %s: %v", resp.Status, err)
		}
		return r.ID, r.Created
	}
	id, _ := submit()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/records") // streams until the job is done
	if err != nil {
		b.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || n < 1<<19 {
		b.Fatalf("warming the entry: %d bytes: %v", n, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, created := submit(); created || got != id {
			b.Fatalf("warm submit: id %.12s created=%v", got, created)
		}
	}
}

// BenchmarkRecordLog times one checkpoint's life in the shared record
// log: create, append 10 k record lines one write each (as a worker
// stream or the engine delivers them), seal (marker, fsync, rename),
// validate. allocs/op must not grow with the line count.
func BenchmarkRecordLog(b *testing.B) {
	b.ReportAllocs()
	const lines = 10_000
	path := filepath.Join(b.TempDir(), "log.jsonl")
	line := []byte(`{"scenario":"bench","series":"cell","cell":0,"delivered":0.875,"latency_ms":12.5,"tx":42}` + "\n")
	b.SetBytes(int64(lines * len(line)))
	for i := 0; i < b.N; i++ {
		lg, err := sink.CreateLog(path)
		if err != nil {
			b.Fatal(err)
		}
		for n := 0; n < lines; n++ {
			if _, err := lg.Write(line); err != nil {
				b.Fatal(err)
			}
		}
		if err := lg.Seal(); err != nil {
			b.Fatal(err)
		}
		if n, _, _, ok := sink.ValidateLog(path); !ok || n != lines {
			b.Fatalf("sealed log: records=%d ok=%v", n, ok)
		}
	}
}

// --- Ablation benches -------------------------------------------------

// BenchmarkAblationLIRThreshold sweeps the binary classifier threshold
// over a bimodal LIR population, reporting the FN/FP trade-off the §4.4
// analysis predicts.
func BenchmarkAblationLIRThreshold(b *testing.B) {
	var lirs []float64
	for i := 0; i < 60; i++ {
		lirs = append(lirs, 0.35+0.005*float64(i))
	}
	for i := 0; i < 40; i++ {
		lirs = append(lirs, 0.94+0.0015*float64(i))
	}
	thresholds := []float64{0.5, 0.7, 0.8, 0.9, 0.95, 0.99}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, th := range thresholds {
			feasibility.ExpectedLIRErrors(lirs, th)
		}
	}
}

// BenchmarkAblationFrankWolfe measures solver cost and utility gap as the
// iteration budget grows on a 6-link/4-flow polytope.
func BenchmarkAblationFrankWolfe(b *testing.B) {
	g := conflict.NewGraph(6)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, (i+1)%6)
		g.AddEdge(i, (i+2)%6)
	}
	region := feasibility.Build([]float64{1, 2, 1.5, 1, 2.5, 1.2}, g)
	prob := &optimize.Problem{
		Region: region,
		Routes: [][]int{{0, 1}, {2}, {3, 4}, {5}},
	}
	for _, iters := range []int{50, 200, 800} {
		b.Run(benchName("iters", iters), func(b *testing.B) {
			var gap float64
			ref, err := optimize.Solve(prob, optimize.ProportionalFair, optimize.Options{Iterations: 3000})
			if err != nil {
				b.Fatal(err)
			}
			refU := logUtility(ref)
			for i := 0; i < b.N; i++ {
				y, err := optimize.Solve(prob, optimize.ProportionalFair, optimize.Options{Iterations: iters})
				if err != nil {
					b.Fatal(err)
				}
				gap = refU - logUtility(y)
			}
			b.ReportMetric(gap, "utility-gap")
		})
	}
}

// logUtility is the proportional-fair objective: the sum of log rates.
func logUtility(y []float64) float64 {
	u := 0.0
	for _, v := range y {
		u += math.Log(v)
	}
	return u
}

// BenchmarkAblationCapture compares IA-pair simultaneous throughput with
// capture enabled vs disabled (the FN source of §4.3.2).
func BenchmarkAblationCapture(b *testing.B) {
	run := func(b *testing.B, captureDB float64) float64 {
		cfg := phy.DefaultConfig()
		cfg.CaptureDB = captureDB
		s := sim.New(5)
		med := phy.NewMedium(s, cfg)
		// IA geometry, as in topology.TwoLink.
		nw := &topology.Network{Sim: s, Medium: med}
		for _, p := range []phy.Position{{X: 0}, {X: 90}, {X: 240}, {X: 320}} {
			nw.Nodes = append(nw.Nodes, node.New(med, med.AddRadio(p), phy.Rate1))
		}
		l1, l2 := topology.Link{Src: 0, Dst: 1}, topology.Link{Src: 2, Dst: 3}
		nw.InstallDirectRoute(l1)
		nw.InstallDirectRoute(l2)
		res := measure.Simultaneous(nw, []topology.Link{l1, l2}, traffic.DefaultPayload, 2*sim.Second)
		return res[0].ThroughputBps
	}
	for _, captureDB := range []float64{5, 1000} { // 1000 dB = capture off
		captureDB := captureDB
		b.Run(benchName("captureDB", int(captureDB)), func(b *testing.B) {
			var exposed float64
			for i := 0; i < b.N; i++ {
				exposed = run(b, captureDB)
			}
			b.ReportMetric(exposed/1e3, "exposed-kbps")
		})
	}
}

// BenchmarkAblationProbeWindow reports estimator RMSE for different
// probing windows (the Fig. 10b sensitivity).
func BenchmarkAblationProbeWindow(b *testing.B) {
	for _, window := range []int{100, 200, 400} {
		window := window
		b.Run(benchName("S", window), func(b *testing.B) {
			sc := benchScale()
			sc.ProbeWindow = window
			var rmse float64
			for i := 0; i < b.N; i++ {
				res := runFig[experiments.Fig10Result](b, "fig10", 4, sc)
				rmse = res.RMSEByS[window]
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// BenchmarkAblationExhaustiveRegion compares the O(2^L) measured-
// combination region (the paper's offline alternative in §3.2) against
// the online MIS construction, reporting their agreement.
func BenchmarkAblationExhaustiveRegion(b *testing.B) {
	sc := benchScale()
	var agree float64
	for i := 0; i < b.N; i++ {
		res := runFig[experiments.ExhaustiveResult](b, "exhaustive", 5, sc)
		agree = res.MISAgreement
		res.Print(io.Discard)
	}
	b.ReportMetric(agree, "agreement")
}

// --- Microbenchmarks on the core data structures ----------------------

func BenchmarkMISEnumeration(b *testing.B) {
	g := conflict.NewGraph(24)
	for c := 0; c < 6; c++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				g.AddEdge(4*c+i, 4*c+j)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(g.MaximalIndependentSets()); got != 4096 {
			b.Fatalf("MIS count %d", got)
		}
	}
}

func BenchmarkRegionMembership(b *testing.B) {
	g := conflict.NewGraph(10)
	for i := 0; i < 10; i++ {
		g.AddEdge(i, (i+1)%10)
	}
	caps := make([]float64, 10)
	y := make([]float64, 10)
	for i := range caps {
		caps[i] = 1 + float64(i%3)
		y[i] = 0.3
	}
	region := feasibility.Build(caps, g)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		region.Contains(y)
	}
}

func BenchmarkChannelLossEstimator(b *testing.B) {
	trace := make(capacity.LossTrace, 1280)
	for i := range trace {
		trace[i] = i%13 == 0 || (i > 400 && i < 430)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		capacity.EstimateChannelLoss(trace, capacity.DefaultWmin)
	}
}

func BenchmarkEq6Capacity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		capacity.MaxUDP(float64(i%90)/100, phy.Rate11, 1470)
	}
}

func BenchmarkMACSaturation(b *testing.B) {
	b.ReportAllocs()
	defer reportEvents(b)()
	for i := 0; i < b.N; i++ {
		nw := topology.TwoLink(int64(i+1), topology.CS, phy.Rate11, phy.Rate11)
		measure.MaxUDP(nw.Network, nw.Link1, traffic.DefaultPayload, sim.Second)
	}
}

// reportEvents adds events/op — simulator events fired per iteration, a
// pure function of the workload — to a benchmark. Call it before the
// loop and its result after.
func reportEvents(b *testing.B) func() {
	start := sim.TotalFired()
	return func() { b.ReportMetric(float64(sim.TotalFired()-start)/float64(b.N), "events/op") }
}

func benchName(k string, v int) string {
	return fmt.Sprintf("%s=%d", k, v)
}
