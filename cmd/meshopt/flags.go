package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/experiments/exp"
	"repro/internal/experiments/runner"
	"repro/internal/obs/span"
	"repro/internal/scenario/sink"
)

// The job flags a subcommand can bind. newFlags declares each of them
// once, with the one meaning it has on every subcommand that takes it.
const (
	withTarget  = 1 << iota // -seed and -scale, for a job named by a target argument
	withWorkers             // -workers
	withOut                 // -o
	withSpans               // -spans
	withShards              // -shards
	withServer              // -addr of the `meshopt serve` a client talks to
)

// cmdFlags is one subcommand's flag set with the job flags it bound; a
// job flag it did not bind stays nil.
type cmdFlags struct {
	*flag.FlagSet
	seed    *int64
	scale   *string
	workers *int
	out     *string
	spans   *string
	shards  *int
	addr    *string
}

// newFlags returns the flag set of `meshopt <name>` with the job flags
// in with bound. Parse errors and -h come back to the caller (see
// parse) rather than exiting the process.
func newFlags(name, usage string, with int) *cmdFlags {
	fs := flag.NewFlagSet("meshopt "+name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: meshopt %s %s\n", name, usage)
		fs.PrintDefaults()
	}
	f := &cmdFlags{FlagSet: fs}
	if with&withTarget != 0 {
		f.seed = fs.Int64("seed", 1, "experiment seed (a scenario's own seed when unset)")
		f.scale = fs.String("scale", "quick", "experiment scale: quick or paper")
	}
	if with&withWorkers != 0 {
		f.workers = fs.Int("workers", 0, "workers running the job: experiment goroutines in process, worker processes under coord; 0 = GOMAXPROCS (coord: min(shards, GOMAXPROCS))")
	}
	if with&withOut != 0 {
		f.out = fs.String("o", "", "write the records to this `file` (default: stdout; coord: only the run directory's merged.jsonl)")
	}
	if with&withSpans != 0 {
		f.spans = fs.String("spans", "", "write an execution span capture to this `file` (.json = Chrome trace-event, .jsonl = span log; read it with meshopt report)")
	}
	if with&withShards != 0 {
		f.shards = fs.Int("shards", 0, "number of shards (residue classes) to dispatch (submit: 0/1 = in-process)")
	}
	if with&withServer != 0 {
		f.addr = fs.String("addr", "http://127.0.0.1:8080", "base `url` of the meshopt serve to talk to (scheme optional)")
	}
	return f
}

// parse parses args. ok is false when the subcommand should stop and
// return code: 0 after -h, 2 after a parse error, which the flag
// package has already reported along with the usage.
func (f *cmdFlags) parse(args []string) (code int, ok bool) {
	switch err := f.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case err != nil:
		return 2, false
	}
	return 0, true
}

// parseTarget parses args with the one positional target allowed
// before or after the flags, and requires it.
func (f *cmdFlags) parseTarget(args []string) (target string, code int, ok bool) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		target, args = args[0], args[1:]
	}
	if code, ok := f.parse(args); !ok {
		return "", code, false
	}
	if target == "" && f.NArg() > 0 {
		target = f.Arg(0)
	}
	if target == "" {
		f.Usage()
		return "", 2, false
	}
	return target, 0, true
}

// job is a resolved target: the dist.Job that names it to another
// process, plus the experiment and scale it resolves to here.
type job struct {
	dist.Job
	e  exp.Experiment
	sc exp.Scale
}

// resolve maps a target to its job. The target is a figure number, a
// name the job resolver accepts (dist.Catalogue), or a scenario spec
// file, which travels inline. The seed is -seed when set, else the
// target's own default; an alias becomes its canonical name. Every
// error is a usage error.
func (f *cmdFlags) resolve(target string) (*job, error) {
	j := &job{Job: dist.Job{Experiment: target, Seed: 1, Scale: *f.scale}}
	if f.shards != nil {
		j.Shards = *f.shards
	}
	if n, err := strconv.Atoi(target); err == nil {
		j.Experiment = fmt.Sprintf("fig%d", n)
	}
	e, spec, err := j.Target()
	if err != nil {
		if j.Spec, err = os.ReadFile(target); err != nil {
			var names []string
			for _, c := range dist.Catalogue() {
				names = append(names, c.Name)
			}
			return nil, fmt.Errorf("unknown target %q (not a figure number, registered name or readable spec file)\nregistered: %v",
				target, names)
		}
		if e, spec, err = j.Target(); err != nil {
			return nil, err
		}
	}
	if e != nil {
		j.Experiment = e.Name()
	} else {
		j.Experiment, j.Seed = spec.Name, spec.Seed
	}
	f.Visit(func(fl *flag.Flag) {
		if fl.Name == "seed" {
			j.Seed = *f.seed
		}
	})
	if j.e, j.sc, err = j.Resolve(); err != nil {
		return nil, err
	}
	return j, nil
}

// records opens the record stream: records to stdout with the summary
// on stderr, or to the -o file with the summary on stdout. The closer
// finalizes the -o file.
func (f *cmdFlags) records() (recordW, logW io.Writer, closer func() error, err error) {
	if *f.out == "" {
		return os.Stdout, os.Stderr, func() error { return nil }, nil
	}
	file, err := os.Create(*f.out)
	if err != nil {
		return nil, nil, nil, err
	}
	return file, os.Stdout, file.Close, nil
}

// run executes j in process on the -workers pool, streaming its records
// in format (jsonl or csv) through records. It returns the reduction
// and where its summary goes.
func (f *cmdFlags) run(j *job, format string, o exp.Options) (exp.Result, io.Writer, error) {
	runner.SetWorkers(*f.workers)
	recordW, logW, closeOut, err := f.records()
	if err != nil {
		return nil, nil, err
	}
	o.Sink = sink.NewJSONL(recordW)
	if format == "csv" {
		o.Sink = sink.NewCSV(recordW)
	}
	res, err := exp.Run(j.e, j.Seed, j.sc, o)
	if cerr := o.Sink.Close(); err == nil {
		err = cerr
	}
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	return res, logW, err
}

// startSpans starts the -spans capture, when one was asked for, as a
// root span the returned context carries. end closes the root, writes
// the capture, and returns err or else the write's error.
func (f *cmdFlags) startSpans(ctx context.Context, root string, attrs ...span.Attr) (_ context.Context, end func(err error) error) {
	if *f.spans == "" {
		return ctx, func(err error) error { return err }
	}
	rec := span.NewRecorder()
	s := rec.Root(root, attrs...)
	return span.NewContext(ctx, s), func(err error) error {
		s.End()
		if werr := span.WriteFile(*f.spans, rec.Snapshot()); err == nil {
			err = werr
		}
		return err
	}
}

// server is the -addr base URL without its trailing slash; a missing
// scheme means http.
func (f *cmdFlags) server() string {
	base := strings.TrimRight(*f.addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

// usageError reports err and returns the usage exit code.
func usageError(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 2
}

// failure reports err and returns the runtime-failure exit code.
func failure(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
