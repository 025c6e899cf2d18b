package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// traced is the outcome of one traced run.
type traced struct {
	metrics   layerMetrics
	ops       passResult
	info      []string
	spans     []span.SpanData
	tracePath string
}

// overheadShare is the share of --seconds a traced run spends
// alternating untraced and traced passes of its workload; the probes
// that follow are fixed-size.
const overheadShare = 0.3

// runTraced takes the per-layer numbers: passes of the workload with
// obs.Default enabled and a span recorder in the context, alternated
// with plain passes for the tracing overhead, then every layer probe
// under the same recorder. Spans stay in memory until the run ends.
func runTraced(b *bench, w workload) (*traced, error) {
	t := &traced{metrics: layerMetrics{}}
	inst, err := w.setup(b)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t.info = inst.info
	rec := span.NewRecorder()
	root := rec.Root("benchmark", span.Str("workload", w.name), span.I64("seed", b.seed))
	ctx := span.NewContext(context.Background(), root)

	err = func() error {
		defer inst.close()
		for i := 0; i < w.warmup; i++ {
			_, r, err := b.runPass(context.Background(), inst)
			if err != nil {
				return fmt.Errorf("warm-up pass: %w", err)
			}
			t.ops.add(r)
		}
		var plain, withTrace []float64
		deadline := time.Now().Add(time.Duration(overheadShare * b.seconds * float64(time.Second)))
		for len(plain) < 2 || time.Now().Before(deadline) {
			obs.Default.SetEnabled(false)
			cost, r, err := b.runPass(context.Background(), inst)
			if err != nil {
				return fmt.Errorf("untraced pass: %w", err)
			}
			t.ops.add(r)
			plain = append(plain, cost.wallS)
			obs.Default.SetEnabled(true)
			err = spanned(ctx, "pass", func(ctx context.Context) error {
				cost, r, err = b.runPass(ctx, inst)
				return err
			})
			if err != nil {
				return fmt.Errorf("traced pass: %w", err)
			}
			t.ops.add(r)
			withTrace = append(withTrace, cost.wallS)
		}
		t.metrics["trace.overhead_share"] = (median(withTrace) - median(plain)) / median(plain)
		return nil
	}()
	if err != nil {
		return nil, err
	}

	obs.Default.SetEnabled(true)
	defer obs.Default.SetEnabled(false)
	probes := []struct {
		name string
		run  func(ctx context.Context) (passResult, error)
	}{
		{"sim", func(context.Context) (passResult, error) { return passResult{}, probeSim(t.metrics) }},
		{"mac", func(context.Context) (passResult, error) { probeMAC(t.metrics); return passResult{}, nil }},
		{"phy", func(context.Context) (passResult, error) { probePHY(t.metrics); return passResult{}, nil }},
		{"core", func(context.Context) (passResult, error) { return passResult{}, probeCore(b.seed, t.metrics) }},
		{"experiments", func(context.Context) (passResult, error) { return passResult{}, probeExperiments(t.metrics) }},
		{"exp", func(ctx context.Context) (passResult, error) { return probeExp(ctx, b, rec, t.metrics) }},
		{"records", func(ctx context.Context) (passResult, error) { return probeRecords(ctx, b, rec, t.metrics) }},
		{"serve", func(ctx context.Context) (passResult, error) { return probeServe(ctx, b, t.metrics) }},
	}
	for _, p := range probes {
		err := spanned(ctx, "probe."+p.name, func(ctx context.Context) error {
			r, err := p.run(ctx)
			t.ops.add(r)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.name, err)
		}
	}
	root.End()
	t.spans = rec.Snapshot()
	t.tracePath = filepath.Join(b.build, "trace-"+w.name+".json")
	if err := span.WriteFile(t.tracePath, t.spans); err != nil {
		return nil, err
	}
	return t, nil
}

// reportTraced prints the per-layer report and returns the result line.
func reportTraced(b *bench, w workload, t *traced) result {
	printEnv(b, w, true)
	for _, line := range t.info {
		fmt.Println("  " + line)
	}
	res := result{
		Correct:   t.ops.failed == 0,
		Attempted: t.ops.attempted,
		Failed:    t.ops.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Println("per-layer metrics (traced run):")
	for _, m := range perLayer {
		v, ok := t.metrics[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: no probe produced %s\n", m.Name)
			res.Correct = false
		}
		fmt.Printf("  %-32s %14.6g %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	fmt.Printf("  phy.delivery_ratio exactly: %.17g\n", t.metrics["phy.delivery_ratio"])

	fmt.Println("self time by span name (duration minus the interval children cover):")
	self := selfTimes(t.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("  %-32s %10.3f s\n", n, self[n].Seconds())
	}
	rel, err := filepath.Rel(b.root, t.tracePath)
	if err != nil {
		rel = t.tracePath
	}
	fmt.Printf("  %d spans written to %s (read with: meshopt report %s)\n", len(t.spans), rel, rel)
	fmt.Printf("  failed_share %d/%d\n", t.ops.failed, t.ops.attempted)
	return res
}
