// Command meshopt regenerates the paper's evaluation figures on the
// simulated mesh substrate and runs declarative scenarios, all through
// one experiment registry.
//
// Usage:
//
//	meshopt fig 10                      # run one figure suite (3..14, or a name)
//	meshopt fig netvalid -scale paper
//	meshopt fig 10 -shard 0/2 -o s0.jsonl   # one residue class of the cells
//	meshopt merge -o full.jsonl s0.jsonl s1.jsonl
//	meshopt coord 10 -shards 4 -workers 4 -dir run/  # dispatch + live merge + checkpoint
//	meshopt serve -addr :8080 -cache cache/          # HTTP experiment service
//	meshopt submit 10 -addr http://host:8080         # run (or fetch) a job remotely
//	meshopt watch 10 -addr http://host:8080          # live progress off the frontier
//	meshopt stats -addr http://host:8080             # /v1/stats snapshot (-metrics: Prometheus text)
//	meshopt fig 10 -trace spans.json                 # capture an execution span tree
//	meshopt report spans.json                        # critical path + slot/retry/steal decomposition
//	meshopt run quickstart              # run a registered scenario
//	meshopt run spec.json -o out.jsonl -format jsonl
//	meshopt fig broadcast               # broadcast dissemination sweep
//	meshopt run examples/broadcast.json # ...or as a "broadcast" spec kind
//	meshopt list                        # figures and scenarios in one table
//
// Every figure suite is an experiment: a deterministic cell enumeration
// streamed as one record per cell (JSONL or CSV) plus a reduced summary.
// Records go to stdout (summary to stderr) by default, or to the -o file
// (summary to stdout). Swept scenarios are experiments too: `run`,
// `fig`, `coord` and `-shard` all drive the same engine and accept a
// registered scenario name or a spec file wherever they accept a
// figure. That includes the broadcast family: the registered
// `broadcast` experiment sweeps (root × relay policy × repetition)
// dissemination cells, and a spec with a `"broadcast"` block (see
// examples/broadcast.json) runs the same engine over any declared
// topology.
//
// Sharding: `-shard i/k` runs the cells whose index ≡ i (mod k) and
// streams their records; `meshopt merge` recombines shard files into a
// stream byte-identical to an unsharded run — for any -workers value on
// any shard — and prints the same reduced summary. Shard streams must be
// JSONL. A merge whose inputs miss whole residue classes exits 2 and
// names the missing shards.
//
// Coordinator: `meshopt coord <fig|scenario> -shards k -workers <n|cmd>
// -dir run/` dispatches the k residue classes over a pool of workers —
// `-workers 4` spawns four local `meshopt work` subprocesses, while
// `-workers 'ssh mesh{slot} meshopt work'` (with `-slots n`) fans out
// over any transport whose command speaks the `meshopt work` stdio
// protocol. Workers are long-lived — one process serves many shard
// requests, amortizing startup and warm caches across dispatches. Shard
// streams are merged live in cell order; completed shards checkpoint
// into the run directory, failed workers are retried with bounded,
// jittered backoff (`-backoff`, `-backoff-cap`, `-jitter`), a stalled
// shard can be stolen to a free slot (`-steal-after`), Ctrl-C stops the
// run at the next cell boundary, and re-running the same command
// resumes the run, re-dispatching only missing or invalid shards.
// run/merged.jsonl (and -o) is byte-identical to the unsharded
// `meshopt fig` stream.
//
//	meshopt coord 10 -shards 6 -workers 3 -dir run/   # quickstart
//	meshopt coord 10 -shards 6 -workers 3 -dir run/   # ...resume after a crash
//	meshopt merge -o full.jsonl run/shard_*.jsonl     # offline re-merge also works
//
// Service: `meshopt serve -addr :8080 -cache dir/` is the HTTP control
// plane over the same engine: submitted jobs (any figure or scenario,
// optionally sharded over the coordinator) stream NDJSON records as
// cells complete — byte-identical to the corresponding `meshopt fig`
// output — into a content-addressed result cache; identical concurrent
// submissions coalesce onto one execution, and a restarted server
// resumes checkpointed jobs instead of recomputing. `meshopt submit`
// and `meshopt watch` are the matching clients.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/fault"
	"repro/internal/experiments"
	"repro/internal/experiments/exp"
	"repro/internal/experiments/runner"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/scenario"
	"repro/internal/scenario/sink"
)

func main() { os.Exit(dispatch(os.Args[1:])) }

var subcommands = map[string]func(args []string) int{
	"fig":    runFig,
	"merge":  runMerge,
	"coord":  runCoord,
	"work":   runWork,
	"serve":  runServe,
	"submit": runSubmit,
	"watch":  runWatch,
	"stats":  runStats,
	"run":    runScenario,
	"trace":  runTrace,
	"report": runReport,
	"list":   func([]string) int { list(os.Stdout); return 0 },
}

// dispatch runs the subcommand args names. A missing or unknown
// subcommand prints the usage and exits 2.
func dispatch(args []string) int {
	if len(args) > 0 {
		if run, ok := subcommands[args[0]]; ok {
			return run(args[1:])
		}
	}
	fmt.Fprint(os.Stderr, `usage: meshopt fig <n|name|scenario> [flags]
       meshopt merge [-o merged.jsonl] shard.jsonl ...
       meshopt coord <n|name|scenario> -shards k -workers <n|cmd> -dir rundir [flags]
       meshopt work   (stdio worker protocol; spawned by coord)
       meshopt serve -cache dir [-addr :8080]   (HTTP experiment service)
       meshopt submit <n|name|scenario> -addr http://host:port [flags]
       meshopt watch <job-id|target> -addr http://host:port
       meshopt stats -addr http://host:port [-metrics|-path /p]   (server observability)
       meshopt trace <record|replay|diff> ...   (channel capture and replay)
       meshopt report <spans.json|spans.jsonl>   (decompose a -trace capture)
       meshopt run <scenario.json|name> [flags]
       meshopt list
`)
	return 2
}

// list enumerates figure experiments and registered scenarios in one
// table.
func list(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-9s %s\n", "NAME", "KIND", "DESCRIPTION")
	for _, name := range exp.Names() {
		e, _ := exp.Find(name)
		fmt.Fprintf(w, "%-12s %-9s %s\n", name, "figure", e.Describe())
	}
	names := scenario.Names()
	sort.Strings(names)
	for _, n := range names {
		if spec, ok := scenario.Lookup(n); ok && spec.Figure != 0 {
			continue // figure delegates already listed above
		}
		fmt.Fprintf(w, "%-12s %-9s %s\n", n, "scenario", scenario.Describe(n))
	}
	aliases := exp.Aliases()
	var as []string
	for a := range aliases {
		as = append(as, a)
	}
	sort.Strings(as)
	for _, a := range as {
		fmt.Fprintf(w, "%-12s %-9s alias of %s\n", a, "figure", aliases[a])
	}
	fmt.Fprintln(w, "\nRun figures with `meshopt fig <n|name>`, scenarios with `meshopt run <name|spec.json>`.")
}

// resolveExperiment maps a CLI target — a figure number or a registry
// name/alias — to its experiment.
func resolveExperiment(target string) (exp.Experiment, bool) {
	if n, err := strconv.Atoi(target); err == nil {
		return exp.Find(fmt.Sprintf("fig%d", n))
	}
	return exp.Find(target)
}

// shardTarget is a resolved shardable target: any experiment the fig
// and coord subcommands accept.
type shardTarget struct {
	name string          // canonical name a fresh worker process can resolve
	e    exp.Experiment  // the experiment itself
	spec json.RawMessage // inline scenario spec when the target was a file
	seed int64           // default seed (the scenario's own, or 1 for figures)
}

// resolveShardable maps a CLI target to its experiment: a figure number,
// a registry name/alias, a registered scenario name, or a scenario spec
// file. Scenario targets resolve through the scenario→experiment adapter
// so sweeps shard like figures do.
func resolveShardable(target string) (*shardTarget, error) {
	if e, ok := resolveExperiment(target); ok {
		return &shardTarget{name: e.Name(), e: e, seed: 1}, nil
	}
	if spec, ok := scenario.Lookup(target); ok {
		e, err := scenario.Experiment(spec)
		if err != nil {
			return nil, err
		}
		return &shardTarget{name: target, e: e, seed: spec.Seed}, nil
	}
	if data, err := os.ReadFile(target); err == nil {
		spec, err := scenario.Parse(data)
		if err != nil {
			return nil, err
		}
		e, err := scenario.Experiment(spec)
		if err != nil {
			return nil, err
		}
		return &shardTarget{name: spec.Name, e: e, spec: data, seed: spec.Seed}, nil
	}
	return nil, fmt.Errorf("unknown target %q (not a figure, registered experiment, scenario name or readable spec file)\nregistered experiments: %v\nregistered scenarios: %v",
		target, exp.Names(), scenario.Names())
}

// seedOrDefault resolves the effective seed: the -seed flag when the
// user set it, else the target's own default (a scenario's spec seed).
func seedOrDefault(fs *flag.FlagSet, flagSeed int64, def int64) int64 {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			set = true
		}
	})
	if set {
		return flagSeed
	}
	return def
}

// parseScale resolves the -scale flag through the same name table the
// worker protocol uses (exp.NamedScale), so the CLI and remote workers
// can never diverge on what a scale name means.
func parseScale(name string) (experiments.Scale, error) {
	if sc, ok := exp.NamedScale(name); ok {
		return sc, nil
	}
	return experiments.Scale{}, fmt.Errorf("unknown scale %q (want quick or paper)", name)
}

// openRecords routes the record stream and the human-readable summary:
// records to stdout (summary to stderr) unless -o sends records to a
// file (summary to stdout). The returned closer finalizes the -o file.
func openRecords(out string) (recordW io.Writer, logW io.Writer, closer func() error, err error) {
	if out == "" {
		return os.Stdout, os.Stderr, func() error { return nil }, nil
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, nil, nil, err
	}
	return f, os.Stdout, f.Close, nil
}

// runFig implements the `fig` subcommand. Exit codes: 0 ok, 1 runtime
// failure, 2 usage or unknown figure.
func runFig(args []string) int {
	fs := flag.NewFlagSet("meshopt fig", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	scaleName := fs.String("scale", "quick", "experiment scale: quick or paper")
	workers := fs.Int("workers", 0, "experiment worker pool size; 0 = GOMAXPROCS")
	shardSpec := fs.String("shard", "", "run one residue class of cells (i/k, e.g. 0/2); requires -format jsonl")
	out := fs.String("o", "", "write result records to this file (default: stdout)")
	format := fs.String("format", "jsonl", "record format: jsonl or csv")
	pprofCPU := fs.String("pprof-cpu", "", "write a CPU profile of the run to this file")
	pprofMem := fs.String("pprof-mem", "", "write a heap profile (taken after the run, post-GC) to this file")
	tracePath := fs.String("trace", "", "write an execution span capture to this file (.json = Chrome trace-event, .jsonl = span log; see `meshopt report`)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: meshopt fig <n|name> [flags]")
		fs.PrintDefaults()
	}
	// Accept the target either before or after the flags.
	var target string
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		target, args = args[0], args[1:]
	}
	fs.Parse(args)
	if target == "" && fs.NArg() > 0 {
		target = fs.Arg(0)
	}
	if target == "" {
		fs.Usage()
		return 2
	}
	ti, err := resolveShardable(target)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	e := ti.e
	sc, err := parseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var shard exp.Shard
	if *shardSpec != "" {
		if shard, err = exp.ParseShard(*shardSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if *format != "jsonl" {
			fmt.Fprintln(os.Stderr, "-shard requires -format jsonl (shard streams are merged line-wise)")
			return 2
		}
	}
	if *format != "jsonl" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want jsonl or csv)\n", *format)
		return 2 // before os.Create: a usage error must not truncate -o
	}

	runner.SetWorkers(*workers)
	recordW, logW, closeOut, err := openRecords(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var snk sink.Sink
	if *format == "csv" {
		snk = sink.NewCSV(recordW)
	} else {
		snk = sink.NewJSONL(recordW)
	}

	stopProfiles, err := startProfiles(*pprofCPU, *pprofMem)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	effSeed := seedOrDefault(fs, *seed, ti.seed)
	opts := exp.Options{Sink: snk, Shard: shard}
	var trace *span.Recorder
	var figSpan *span.Span
	if *tracePath != "" {
		trace = span.NewRecorder()
		figSpan = trace.Root("fig",
			span.Str("experiment", e.Name()),
			span.I64("seed", effSeed),
			span.Str("scale", *scaleName),
			span.Str("shard", shard.String()))
		opts.Context = span.NewContext(context.Background(), figSpan)
	}

	start := time.Now()
	res, err := exp.Run(e, effSeed, sc, opts)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if cerr := snk.Close(); err == nil {
		err = cerr
	}
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if trace != nil {
		figSpan.End()
		if werr := span.WriteFile(*tracePath, trace.Snapshot()); err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if shard.Enabled() {
		fmt.Fprintf(logW, "%s shard %s streamed in %v (merge shards with `meshopt merge` for the reduction)\n",
			e.Name(), shard, time.Since(start).Round(time.Millisecond))
		return 0
	}
	res.Print(logW)
	fmt.Fprintf(logW, "done in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// runMerge implements the `merge` subcommand: recombine shard JSONL
// files into the unsharded stream and print its reduction.
func runMerge(args []string) int {
	fs := flag.NewFlagSet("meshopt merge", flag.ExitOnError)
	out := fs.String("o", "", "write the merged records to this file (default: stdout)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: meshopt merge [-o merged.jsonl] shard0.jsonl shard1.jsonl ...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	var ins []io.Reader
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		ins = append(ins, f)
	}
	recordW, logW, closeOut, err := openRecords(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res, err := exp.Merge(ins, recordW)
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		// An incomplete input set (missing shard streams) is a usage
		// error — the fix is passing the named shards — not a runtime
		// failure.
		var gap *exp.GapError
		if errors.As(err, &gap) {
			return 2
		}
		return 1
	}
	if res != nil {
		res.Print(logW)
	}
	return 0
}

// runWork implements the `work` subcommand: a long-lived worker serving
// shard dispatches on stdin/stdout for a `meshopt coord` coordinator
// (local subprocess, ssh, k8s exec, ...) until stdin closes. The record
// protocol owns stdout, so the event log goes to stderr and metrics are
// only reachable through the -metrics-addr sidecar.
func runWork(args []string) int {
	fs := flag.NewFlagSet("meshopt work", flag.ExitOnError)
	of := addObsFlags(fs, "warn")
	metricsAddr := fs.String("metrics-addr", "", "serve GET /metrics and /debug/pprof/* on this sidecar address (host:port; empty = off)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: meshopt work [flags]   (stdio worker protocol; spawned by coord)")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	logger, err := of.logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sched, err := fault.FromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshopt work:", err)
		return 1
	}
	stopSidecar, err := startSidecar(*metricsAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopSidecar()
	if err := dist.ServeWork(os.Stdin, os.Stdout, sched, nil, logger); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// runCoord implements the `coord` subcommand. Exit codes: 0 ok, 1
// runtime failure (incomplete run — rerun the same command to resume),
// 2 usage.
func runCoord(args []string) int {
	fs := flag.NewFlagSet("meshopt coord", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	scaleName := fs.String("scale", "quick", "experiment scale: quick or paper")
	shards := fs.Int("shards", 0, "number of shards (residue classes) to dispatch")
	workers := fs.String("workers", "", "worker pool: a count of local `meshopt work` subprocesses, or a command template speaking the work protocol ('ssh mesh{slot} meshopt work')")
	slots := fs.Int("slots", 0, "concurrent worker slots for a template pool (default: min(shards, GOMAXPROCS))")
	dir := fs.String("dir", "", "run directory for checkpoints and the merged output (required)")
	retries := fs.Int("retries", 3, "dispatch attempts per shard before the run gives up (>= 1)")
	timeout := fs.Duration("timeout", 0, "per-attempt timeout (0 = none); set for remote pools where a wedged transport would hold its slot forever")
	backoff := fs.Duration("backoff", 200*time.Millisecond, "base retry delay; attempt n waits n×backoff")
	backoffCap := fs.Duration("backoff-cap", 0, "maximum retry delay (0 = 5×backoff)")
	jitter := fs.Float64("jitter", 0, "randomize each retry delay downward by up to this fraction (0..1, deterministic per job seed)")
	stealAfter := fs.Duration("steal-after", 0, "work stealing: kill and re-dispatch the shard gating the merge frontier after it stalls this long with a free slot available (0 = off)")
	out := fs.String("o", "", "also copy the merged records to this file")
	tracePath := fs.String("trace", "", "write an execution span capture to this file (.json = Chrome trace-event, .jsonl = span log; see `meshopt report`)")
	watch := fs.Bool("watch", false, "render a live progress line (cells merged, shards done) on stderr instead of the shard log")
	of := addObsFlags(fs, "info")
	metricsAddr := fs.String("metrics-addr", "", "serve GET /metrics and /debug/pprof/* on this sidecar address (host:port; empty = off)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: meshopt coord <n|name|scenario|spec.json> -shards k -workers <n|cmd-template> -dir rundir [flags]")
		fs.PrintDefaults()
	}
	// Accept the target either before or after the flags.
	var target string
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		target, args = args[0], args[1:]
	}
	fs.Parse(args)
	if target == "" && fs.NArg() > 0 {
		target = fs.Arg(0)
	}
	if target == "" || *dir == "" {
		fs.Usage()
		return 2
	}
	ti, err := resolveShardable(target)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if _, err := parseScale(*scaleName); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "-shards must be at least 1")
		return 2
	}
	if *retries < 1 {
		fmt.Fprintln(os.Stderr, "-retries must be at least 1 (it counts dispatch attempts; 1 means no retry)")
		return 2
	}
	logger, err := of.logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	stopSidecar, err := startSidecar(*metricsAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopSidecar()

	o := dist.Options{
		MaxAttempts:    *retries,
		AttemptTimeout: *timeout,
		Backoff:        *backoff,
		BackoffCap:     *backoffCap,
		Jitter:         *jitter,
		StealAfter:     *stealAfter,
		Logger:         logger,
	}
	if n, err := strconv.Atoi(*workers); err == nil && *workers != "" {
		o.Slots = n
	} else if *workers != "" {
		o.Spawner = dist.TemplateSpawner(*workers, os.Stderr)
		o.Slots = *slots
	}
	if *watch {
		// The progress line replaces the shard log (both write stderr;
		// interleaving them would shred the \r rendering). Progress is
		// called under the merge lock, so rendering is throttled.
		o.Logger = obs.Discard()
		var lastRender time.Time
		o.Progress = func(p dist.Progress) {
			if time.Since(lastRender) < 100*time.Millisecond && p.MergedCells < p.Cells {
				return
			}
			lastRender = time.Now()
			fmt.Fprintf(os.Stderr, "\rcoord: merged %d/%d cells, shards %d/%d done ",
				p.MergedCells, p.Cells, p.ShardsDone, p.Shards)
		}
	}

	job := dist.Job{
		Experiment: ti.name,
		Spec:       ti.spec,
		Seed:       seedOrDefault(fs, *seed, ti.seed),
		Scale:      *scaleName,
		Shards:     *shards,
	}
	// SIGINT/SIGTERM cancels the run: in-flight workers are killed at
	// the next cell boundary and completed shards stay checkpointed, so
	// rerunning the same command resumes. A second signal kills hard.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var trace *span.Recorder
	var coordSpan *span.Span
	if *tracePath != "" {
		trace = span.NewRecorder()
		coordSpan = trace.Root("coord",
			span.Str("experiment", ti.name),
			span.I64("seed", job.Seed),
			span.Str("scale", *scaleName),
			span.Int("shards", *shards))
		ctx = span.NewContext(ctx, coordSpan)
	}
	start := time.Now()
	rep, err := dist.Run(ctx, job, *dir, o)
	if *watch {
		fmt.Fprintln(os.Stderr)
	}
	if trace != nil {
		coordSpan.End()
		if werr := span.WriteFile(*tracePath, trace.Snapshot()); err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *out != "" {
		if err := copyFile(*dir+"/merged.jsonl", *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "coord: %d cells over %d shards (%d reused, %d dispatched) in %v\n",
		rep.Cells, job.Shards, len(rep.Reused), len(rep.Ran), time.Since(start).Round(time.Millisecond))
	if rep.Result != nil {
		rep.Result.Print(os.Stdout)
	}
	return 0
}

// copyFile copies src to dst (create/truncate).
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	outF, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(outF, in); err != nil {
		outF.Close()
		return err
	}
	return outF.Close()
}

// runScenario implements the `run` subcommand: scenarios resolve
// through the scenario→experiment adapter and run on the same exp
// engine as `fig` — the stream differs from `fig <scenario>` only in
// that this path prints the reduction after the records. Exit codes:
// 0 ok, 1 runtime failure, 2 usage or unknown scenario.
func runScenario(args []string) int {
	fs := flag.NewFlagSet("meshopt run", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "override the scenario's base seed")
	scaleName := fs.String("scale", "quick", "experiment scale: quick or paper")
	workers := fs.Int("workers", 0, "experiment worker pool size; 0 = GOMAXPROCS")
	out := fs.String("o", "", "write result records to this file (default: stdout)")
	format := fs.String("format", "jsonl", "record format: jsonl or csv")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: meshopt run <scenario.json|name> [flags]")
		fs.PrintDefaults()
	}
	// Accept the target either before or after the flags.
	var target string
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		target, args = args[0], args[1:]
	}
	fs.Parse(args)
	if target == "" && fs.NArg() > 0 {
		target = fs.Arg(0)
	}
	if target == "" {
		fs.Usage()
		return 2
	}

	runner.SetWorkers(*workers)
	sc, err := parseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	spec, ok := scenario.Lookup(target)
	if !ok {
		data, err := os.ReadFile(target)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (not a registered name or readable spec file)\n", target)
			fmt.Fprintf(os.Stderr, "registered: %v\n", scenario.Names())
			return 2
		}
		spec, err = scenario.Parse(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	e, err := scenario.Experiment(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *format != "jsonl" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want jsonl or csv)\n", *format)
		return 2 // before os.Create: a usage error must not truncate -o
	}
	recordW, logW, closeOut, err := openRecords(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var snk sink.Sink
	if *format == "csv" {
		snk = sink.NewCSV(recordW)
	} else {
		snk = sink.NewJSONL(recordW)
	}

	start := time.Now()
	res, err := exp.Run(e, seedOrDefault(fs, *seed, spec.Seed), sc, exp.Options{Sink: snk})
	if cerr := snk.Close(); err == nil {
		err = cerr
	}
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res.Print(logW)
	fmt.Fprintf(logW, "done in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
