package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/experiments/exp"
	"repro/internal/experiments/runner"
	"repro/internal/scenario/sink"
	"repro/internal/trace"
)

// runTrace implements the `trace` subcommand family: `record` runs any
// registered experiment/scenario with per-link delivery capture on,
// `replay` re-runs a workload against a recorded trace and asserts the
// delivery decisions are identical, and `diff` compares two recorded
// streams link by link. Exit codes: 0 ok (replay/diff: identical),
// 1 runtime failure or divergence, 2 usage.
func runTrace(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "record":
			return runTraceRecord(args[1:])
		case "replay":
			return runTraceReplay(args[1:])
		case "diff":
			return runTraceDiff(args[1:])
		}
	}
	fmt.Fprintln(os.Stderr, "usage: meshopt trace record <n|name|scenario|spec.json> [flags]")
	fmt.Fprintln(os.Stderr, "       meshopt trace replay <n|name|scenario|spec.json> -trace recorded.jsonl [flags]")
	fmt.Fprintln(os.Stderr, "       meshopt trace diff a.jsonl b.jsonl")
	return 2
}

// runTraceRecord runs a target with capture enabled: the output stream
// is the ordinary run's stream (byte-identical in its non-trace lines)
// plus the "trace"-series records each cell captured.
func runTraceRecord(args []string) int {
	f := newFlags("trace record", "<n|name|scenario|spec.json> [flags]", withTarget|withWorkers|withOut)
	target, code, ok := f.parseTarget(args)
	if !ok {
		return code
	}
	j, err := f.resolve(target)
	if err != nil {
		return usageError(err)
	}
	start := time.Now()
	res, logW, err := f.run(j, "jsonl", exp.Options{
		Capture: func(exp.Cell) exp.Capture { return trace.NewCellCapture() },
	})
	if err != nil {
		return failure(err)
	}
	res.Print(logW)
	fmt.Fprintf(logW, "recorded in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// runTraceReplay re-runs a target against a recorded trace: each cell
// gets a replay channel built from its recorded events plus a fresh
// capture, and the re-captured decisions are diffed against the
// recording. Exit 0 iff every delivery decision matched.
func runTraceReplay(args []string) int {
	f := newFlags("trace replay", "<n|name|scenario|spec.json> -trace recorded.jsonl [flags]", withTarget|withWorkers)
	traceFile := f.String("trace", "", "recorded stream to replay against (required; -seed and -scale must match the recording)")
	target, code, ok := f.parseTarget(args)
	if !ok {
		return code
	}
	if *traceFile == "" {
		f.Usage()
		return 2
	}
	j, err := f.resolve(target)
	if err != nil {
		return usageError(err)
	}
	recorded, err := loadTrace(*traceFile)
	if err != nil {
		return usageError(err)
	}

	runner.SetWorkers(*f.workers)
	set := trace.NewCaptureSet()
	start := time.Now()
	_, err = exp.Run(j.e, j.Seed, j.sc, exp.Options{
		Sink: sink.Discard,
		Capture: func(c exp.Cell) exp.Capture {
			return set.Add(c.Index, trace.NewCellCaptureReplay(trace.NewReplay(recorded[c.Index])))
		},
	})
	if err != nil {
		return failure(err)
	}
	replayed := trace.Trace{}
	for cell, c := range set.Captures() {
		replayed[cell] = c.Collector()
	}
	rep := trace.Diff(recorded, replayed)
	rep.Print(os.Stdout)
	diverged := !rep.Identical()
	for _, cell := range trace.Trace(replayed).Cells() {
		if r := set.Captures()[cell].Replay(); r != nil {
			if rerr := r.Err(); rerr != nil {
				fmt.Fprintf(os.Stderr, "cell %d: %v\n", cell, rerr)
				diverged = true
			}
		}
	}
	fmt.Fprintf(os.Stderr, "replayed in %v\n", time.Since(start).Round(time.Millisecond))
	if diverged {
		return 1
	}
	return 0
}

// runTraceDiff compares two recorded streams link by link. Exit 0 iff
// identical.
func runTraceDiff(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: meshopt trace diff a.jsonl b.jsonl")
		return 2
	}
	a, err := loadTrace(args[0])
	if err != nil {
		return usageError(err)
	}
	b, err := loadTrace(args[1])
	if err != nil {
		return usageError(err)
	}
	rep := trace.Diff(a, b)
	rep.Print(os.Stdout)
	if !rep.Identical() {
		return 1
	}
	return 0
}

// loadTrace decodes the "trace"-series records of a recorded JSONL
// stream.
func loadTrace(path string) (trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := sink.DecodeJSONLStream(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	tr, err := trace.Decode(recs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(tr) == 0 {
		return nil, fmt.Errorf("%s: no trace records (was the stream recorded with `meshopt trace record`?)", path)
	}
	return tr, nil
}
