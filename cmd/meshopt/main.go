// Command meshopt regenerates the paper's evaluation figures on the
// simulated mesh substrate and runs declarative scenarios, all through
// one experiment registry.
//
// Usage:
//
//	meshopt fig 10                      # run one figure suite (3..14, or a name)
//	meshopt fig netvalid -scale paper
//	meshopt fig quickstart              # a registered scenario
//	meshopt fig spec.json -o out.jsonl -format csv   # ...or a scenario spec file
//	meshopt fig broadcast               # broadcast dissemination sweep
//	meshopt fig examples/broadcast.json # ...or as a "broadcast" spec kind
//	meshopt fig 10 -shard 0/2 -o s0.jsonl   # one residue class of the cells
//	meshopt merge -o full.jsonl s0.jsonl s1.jsonl
//	meshopt coord 10 -shards 4 -workers 4 -dir run/  # dispatch + live merge + checkpoint
//	meshopt serve -addr :8080 -cache cache/          # HTTP experiment service
//	meshopt submit 10 -addr http://host:8080         # run (or fetch) a job remotely
//	meshopt watch 10 -addr http://host:8080          # live progress off the frontier
//	meshopt stats -addr http://host:8080             # /v1/stats snapshot (-metrics: Prometheus text)
//	meshopt fig 10 -spans spans.json                 # capture an execution span tree
//	meshopt report spans.json                        # critical path + slot/retry/steal decomposition
//	meshopt trace record 10 -o rec.jsonl             # capture per-link channel decisions
//	meshopt list                        # figures and scenarios in one table
//
// Every figure suite is an experiment: a deterministic cell enumeration
// streamed as one record per cell (JSONL or CSV) plus a reduced summary.
// Records go to stdout (summary to stderr) by default, or to the -o file
// (summary to stdout). Swept scenarios are experiments too: `fig`,
// `coord`, `submit` and `-shard` all drive the same engine and accept a
// registered scenario name or a spec file wherever they accept a
// figure. That includes the broadcast family: the registered
// `broadcast` experiment sweeps (root × relay policy × repetition)
// dissemination cells, and a spec with a `"broadcast"` block (see
// examples/broadcast.json) runs the same engine over any declared
// topology.
//
// The job flags (-seed, -scale, -workers, -o, -spans, -shards) mean the
// same thing on every subcommand that takes them; flags.go declares
// each once.
//
// Sharding: `-shard i/k` runs the cells whose index ≡ i (mod k) and
// streams their records; `meshopt merge` recombines shard files into a
// stream byte-identical to an unsharded run — for any -workers value on
// any shard — and prints the same reduced summary. Shard streams must be
// JSONL. A merge whose inputs miss whole residue classes exits 2 and
// names the missing shards.
//
// Coordinator: `meshopt coord <fig|scenario> -shards k -workers n -dir
// run/` dispatches the k residue classes over n worker slots — local
// `meshopt work` subprocesses by default, or, with `-worker-cmd 'ssh
// mesh{slot} meshopt work'`, any transport whose command speaks the
// `meshopt work` stdio protocol. Workers are long-lived — one process
// serves many shard requests, amortizing startup and warm caches across
// dispatches. Shard streams are merged live in cell order; completed
// shards checkpoint into the run directory, failed workers are retried
// with bounded, jittered backoff, a wedged attempt is killed after
// `-timeout`, a stalled shard can be stolen to a free slot
// (`-steal-after`), Ctrl-C stops the run at the next cell boundary, and
// re-running the same command resumes the run, re-dispatching only
// missing or invalid shards. run/merged.jsonl (and -o) is
// byte-identical to the unsharded `meshopt fig` stream.
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
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/fault"
	_ "repro/internal/experiments" // register the figure suites
	"repro/internal/experiments/exp"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/scenario"
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
	fmt.Fprint(os.Stderr, `usage: meshopt fig <n|name|scenario|spec.json> [flags]
       meshopt merge [-o merged.jsonl] shard.jsonl ...
       meshopt coord <n|name|scenario|spec.json> -shards k -dir rundir [-workers n] [-worker-cmd cmd] [flags]
       meshopt work   (stdio worker protocol; spawned by coord)
       meshopt serve -cache dir [-addr :8080]   (HTTP experiment service)
       meshopt submit <n|name|scenario|spec.json> -addr http://host:port [flags]
       meshopt watch <job-id|target> -addr http://host:port
       meshopt stats -addr http://host:port [-metrics|-path /p]   (server observability)
       meshopt trace <record|replay|diff> ...   (channel capture and replay)
       meshopt report <spans.json|spans.jsonl>   (decompose a -spans capture)
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
	fmt.Fprintln(w, "\nRun any of them, or a scenario spec file, with `meshopt fig <n|name|spec.json>`.")
}

// runFig implements the `fig` subcommand, the one local run of a
// figure or scenario. Exit codes: 0 ok, 1 runtime failure, 2 usage or
// unknown target.
func runFig(args []string) int {
	f := newFlags("fig", "<n|name|scenario|spec.json> [flags]", withTarget|withWorkers|withOut|withSpans)
	shardSpec := f.String("shard", "", "run one residue class of cells (i/k, e.g. 0/2); requires -format jsonl")
	format := f.String("format", "jsonl", "record format: jsonl or csv")
	pprofCPU := f.String("pprof-cpu", "", "write a CPU profile of the run to this file")
	pprofMem := f.String("pprof-mem", "", "write a heap profile (taken after the run, post-GC) to this file")
	target, code, ok := f.parseTarget(args)
	if !ok {
		return code
	}
	j, err := f.resolve(target)
	if err != nil {
		return usageError(err)
	}
	var shard exp.Shard
	if *shardSpec != "" {
		if shard, err = exp.ParseShard(*shardSpec); err != nil {
			return usageError(err)
		}
		if *format != "jsonl" {
			return usageError(errors.New("-shard requires -format jsonl (shard streams are merged line-wise)"))
		}
	}
	if *format != "jsonl" && *format != "csv" {
		// Before os.Create: a usage error must not truncate -o.
		return usageError(fmt.Errorf("unknown format %q (want jsonl or csv)", *format))
	}

	stopProfiles, err := startProfiles(*pprofCPU, *pprofMem)
	if err != nil {
		return failure(err)
	}
	ctx, endSpans := f.startSpans(context.Background(), "fig",
		span.Str("experiment", j.e.Name()),
		span.I64("seed", j.Seed),
		span.Str("scale", j.Scale),
		span.Str("shard", shard.String()))
	start := time.Now()
	res, logW, err := f.run(j, *format, exp.Options{Shard: shard, Context: ctx})
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err = endSpans(err); err != nil {
		return failure(err)
	}
	if shard.Enabled() {
		fmt.Fprintf(logW, "%s shard %s streamed in %v (merge shards with `meshopt merge` for the reduction)\n",
			j.e.Name(), shard, time.Since(start).Round(time.Millisecond))
		return 0
	}
	res.Print(logW)
	fmt.Fprintf(logW, "done in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// runMerge implements the `merge` subcommand: recombine shard JSONL
// files into the unsharded stream and print its reduction.
func runMerge(args []string) int {
	f := newFlags("merge", "[-o merged.jsonl] shard0.jsonl shard1.jsonl ...", withOut)
	if code, ok := f.parse(args); !ok {
		return code
	}
	if f.NArg() == 0 {
		f.Usage()
		return 2
	}
	var ins []io.Reader
	for _, path := range f.Args() {
		file, err := os.Open(path)
		if err != nil {
			return usageError(err)
		}
		defer file.Close()
		ins = append(ins, file)
	}
	recordW, logW, closeOut, err := f.records()
	if err != nil {
		return failure(err)
	}
	res, err := exp.Merge(ins, recordW)
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	// An incomplete input set (missing shard streams) is a usage error —
	// the fix is passing the named shards — not a runtime failure.
	var gap *exp.GapError
	if errors.As(err, &gap) {
		return usageError(err)
	}
	if err != nil {
		return failure(err)
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
	f := newFlags("work", "[flags]   (stdio worker protocol; spawned by coord)", 0)
	of := addObsFlags(f.FlagSet, "warn", true)
	if code, ok := f.parse(args); !ok {
		return code
	}
	logger, err := of.logger(os.Stderr)
	if err != nil {
		return usageError(err)
	}
	sched, err := fault.FromEnv()
	if err != nil {
		return failure(fmt.Errorf("meshopt work: %w", err))
	}
	stopSidecar, err := of.startSidecar()
	if err != nil {
		return failure(err)
	}
	defer stopSidecar()
	if err := dist.ServeWork(os.Stdin, os.Stdout, sched, nil, logger); err != nil {
		return failure(err)
	}
	return 0
}

// runCoord implements the `coord` subcommand. Exit codes: 0 ok, 1
// runtime failure (incomplete run — rerun the same command to resume),
// 2 usage.
func runCoord(args []string) int {
	f := newFlags("coord", "<n|name|scenario|spec.json> -shards k -dir rundir [flags]",
		withTarget|withWorkers|withOut|withSpans|withShards)
	workerCmd := f.String("worker-cmd", "", "run each worker slot as this shell command template speaking the meshopt work protocol ('ssh mesh{slot} meshopt work'); default: local meshopt work subprocesses")
	dir := f.String("dir", "", "run directory for checkpoints and the merged output (required)")
	retries := f.Int("retries", 3, "dispatch attempts per shard before the run gives up (>= 1)")
	timeout := f.Duration("timeout", 0, "per-attempt timeout (0 = none); set for remote pools where a wedged transport would hold its slot forever")
	stealAfter := f.Duration("steal-after", 0, "work stealing: kill and re-dispatch the shard gating the merge frontier after it stalls this long with a free slot available (0 = off)")
	progress := f.Bool("progress", false, "render a live progress line (cells merged, shards done) on stderr instead of the shard log")
	of := addObsFlags(f.FlagSet, "info", true)
	target, code, ok := f.parseTarget(args)
	if !ok {
		return code
	}
	if *dir == "" {
		f.Usage()
		return 2
	}
	j, err := f.resolve(target)
	if err != nil {
		return usageError(err)
	}
	if j.Shards < 1 {
		return usageError(errors.New("-shards must be at least 1"))
	}
	if *retries < 1 {
		return usageError(errors.New("-retries must be at least 1 (it counts dispatch attempts; 1 means no retry)"))
	}
	logger, err := of.logger(os.Stderr)
	if err != nil {
		return usageError(err)
	}
	stopSidecar, err := of.startSidecar()
	if err != nil {
		return failure(err)
	}
	defer stopSidecar()

	o := dist.Options{
		Slots:          *f.workers,
		MaxAttempts:    *retries,
		AttemptTimeout: *timeout,
		StealAfter:     *stealAfter,
		Logger:         logger,
	}
	if *workerCmd != "" {
		o.Spawner = dist.TemplateSpawner(*workerCmd, os.Stderr)
	}
	if *progress {
		// The progress line replaces the shard log (both write stderr;
		// interleaving them would shred the \r rendering). Progress is
		// called on the coordinator loop, so rendering is throttled.
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

	// SIGINT/SIGTERM cancels the run: in-flight workers are killed at
	// the next cell boundary and completed shards stay checkpointed, so
	// rerunning the same command resumes. A second signal kills hard.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, endSpans := f.startSpans(ctx, "coord",
		span.Str("experiment", j.Experiment),
		span.I64("seed", j.Seed),
		span.Str("scale", j.Scale),
		span.Int("shards", j.Shards))
	start := time.Now()
	rep, err := dist.Run(ctx, j.Job, *dir, o)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err = endSpans(err); err != nil {
		return failure(err)
	}
	if *f.out != "" {
		if err := copyFile(*dir+"/merged.jsonl", *f.out); err != nil {
			return failure(err)
		}
	}
	fmt.Fprintf(os.Stderr, "coord: %d cells over %d shards (%d reused, %d dispatched) in %v\n",
		rep.Cells, j.Shards, len(rep.Reused), len(rep.Ran), time.Since(start).Round(time.Millisecond))
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
