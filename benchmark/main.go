// Command benchmark is the repository's benchmark of record: four
// named workloads over the meshopt stack (sim → phy/mac → core →
// exp/runner → sink → dist → serve), every output checked against a
// reference digest, every metric printed by name with its unit.
//
//	go run -C benchmark repro/benchmark --workload dcf-suite --seed 1 --seconds 20 --trace 0
//
// prints a report and, as the last line, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Without --workload it runs the whole suite, each workload in a child
// process of its own; --sets 2 runs the suite twice and fails if the
// two sets disagree by more than a metric's bound. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// bench is the state of one run: its inputs and where it may write.
type bench struct {
	env     benchEnv
	seed    int64
	seconds float64
	root    string         // the checkout: the directory holding cmd/meshopt
	build   string         // <root>/.bench_build: binaries and trace files, kept
	tmp     string         // scratch for run and cache directories, removed at exit
	workers *workerSpawner // starts the built cmd/meshopt; nil until buildMeshopt
	buildS  float64
}

// findRoot locates the checkout from the working directory, which is
// benchmark/ under `go run -C benchmark` and the checkout itself when
// the built binary is run from there.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "meshopt", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find cmd/meshopt from %s: run from the checkout or its benchmark directory", wd)
}

func newBench(seed int64, seconds float64) (*bench, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	b := &bench{env: readEnv(), seed: seed, seconds: seconds, root: root, build: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(b.build, 0o755); err != nil {
		return nil, err
	}
	if b.tmp, err = os.MkdirTemp(b.build, "tmp-"); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.tmp) }

// buildMeshopt builds cmd/meshopt once per process, for the worker
// subprocesses dist.Run starts. The output path is stable,
// so with a warm build cache this is an up-to-date check. It is not
// part of setup_s: a cold compile would make that metric bimodal.
func (b *bench) buildMeshopt() error {
	if b.workers != nil {
		return nil
	}
	out := filepath.Join(b.build, "meshopt")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/meshopt")
	cmd.Dir = b.root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/meshopt: %v\n%s", err, msg)
	}
	b.workers, b.buildS = &workerSpawner{bin: out}, time.Since(t0).Seconds()
	return nil
}

// setupRepeats is how often set-up is repeated in an untraced run, so
// setup_s is a median and not one reading.
const setupRepeats = 3

// minPasses is the fewest timed passes a run reports quartiles from.
const minPasses = 3

// untraced is the outcome of one untraced run of one workload.
type untraced struct {
	setupS []float64
	passes []passCost
	ops    passResult // every operation of the run, warm-up included
	info   []string
	detail *samples
}

// runPass runs one pass plus its untimed verification.
func (b *bench) runPass(ctx context.Context, inst *instance) (passCost, passResult, error) {
	cost, res, err := b.timePass(ctx, inst.pass)
	if err == nil && inst.verify != nil {
		res.failed += inst.verify()
	}
	return cost, res, err
}

func runUntraced(b *bench, w workload) (*untraced, error) {
	out := &untraced{}
	var inst *instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	defer inst.close()
	out.info, out.detail = inst.info, inst.detail
	ctx := context.Background()
	for i := 0; i < w.warmup; i++ {
		_, res, err := b.runPass(ctx, inst)
		if err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		out.ops.add(res)
	}
	if inst.detail != nil {
		inst.detail.reset()
	}
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for len(out.passes) < minPasses || time.Now().Before(deadline) {
		cost, res, err := b.runPass(ctx, inst)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(out.passes)+1, err)
		}
		out.passes = append(out.passes, cost)
		out.ops.add(res)
	}
	return out, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func column(passes []passCost, f func(passCost) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

func printEnv(b *bench, w workload, traced bool) {
	fmt.Printf("benchmark %s seed=%d seconds=%g trace=%v\n", w.name, b.seed, b.seconds, traced)
	fmt.Printf("  why: %s\n", w.why)
	fmt.Printf("  env: nproc=%d GOMAXPROCS=%d %s cpu=%q loadavg1=%s workers=slots=clients=%d\n",
		b.env.NProc, b.env.GoMaxProcs, b.env.GoVersion, b.env.CPUModel, b.env.LoadAvg1, b.env.Parallel)
}

func printSummary(name, unit string, s summary) {
	fmt.Printf("  %-28s %14.6g %-6s q1=%.6g q3=%.6g n=%d\n", name, s.Median, unit, s.Q1, s.Q3, s.N)
}

// reportUntraced prints the end-to-end report and returns the result
// line.
func reportUntraced(b *bench, w workload, u *untraced) result {
	printEnv(b, w, false)
	for _, line := range u.info {
		fmt.Println("  " + line)
	}
	if b.workers != nil {
		fmt.Printf("  built cmd/meshopt in %.2f s (not part of setup_s)\n", b.buildS)
	}
	cols := map[string]summary{
		"setup_s":           summarize(u.setupS),
		"pass_s":            summarize(column(u.passes, func(p passCost) float64 { return p.wallS })),
		"cpu_s_per_pass":    summarize(column(u.passes, func(p passCost) float64 { return p.cpuS })),
		"allocs_per_pass":   summarize(column(u.passes, func(p passCost) float64 { return p.mallocs })),
		"alloc_mb_per_pass": summarize(column(u.passes, func(p passCost) float64 { return p.allocMB })),
		"peak_rss_mb":       summarize(column(u.passes, func(p passCost) float64 { return p.peakMB })),
	}
	res := result{
		Correct:   u.ops.failed == 0,
		Attempted: u.ops.attempted,
		Failed:    u.ops.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Println("end-to-end metrics (median, quartiles, samples):")
	for _, m := range endToEnd {
		printSummary(m.Name, m.Unit, cols[m.Name])
		res.Metrics[m.Name] = metricValue{Value: cols[m.Name].Median, Unit: m.Unit}
	}
	if u.detail != nil {
		fmt.Println("workload detail (untraced):")
		for _, d := range detailOrder {
			if v := u.detail.get(d.key); len(v) > 0 {
				printSummary(d.key, d.unit, summarize(v))
			}
		}
	}
	fmt.Printf("  failed_share %d/%d\n", u.ops.failed, u.ops.attempted)
	return res
}

// detailOrder lists the workload-detail sample names in print order.
var detailOrder = []struct{ key, unit string }{
	{"fresh_s", "s"}, {"resume_s", "s"},
	{"hit-small_ms", "ms"}, {"hit-large_ms", "ms"}, {"cold_ms", "ms"},
	{"submit-large_ms", "ms"}, {"records-large_ms", "ms"},
}

// emit prints the result line and returns the process exit code.
func emit(res result) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runOne is the driver's entry: one workload, in this process.
func runOne(name string, seed int64, seconds float64, traced bool) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	b, err := newBench(seed, seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer b.cleanup()
	var res result
	if traced {
		t, err := runTraced(b, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res = reportTraced(b, w, t)
	} else {
		u, err := runUntraced(b, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res = reportUntraced(b, w, u)
	}
	return emit(res)
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload in this process (default: the whole suite, a child process per workload)")
	seed := fs.Int64("seed", 1, "benchmark seed: generates every input")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	sets := fs.Int("sets", 1, "suite only: run the suite this many times, alternating workload order, and fail if two sets disagree by more than a metric's bound")
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *sets < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--sets n]")
		os.Exit(2)
	}
	if *name != "" {
		os.Exit(runOne(*name, *seed, *seconds, *trace == 1))
	}
	os.Exit(runSuite(*seed, *seconds, *trace == 1, *sets))
}
