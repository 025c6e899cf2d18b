package main

import (
	"fmt"
	"os"

	"repro/internal/obs/span"
)

// runReport implements the `report` subcommand: read a span capture
// (Chrome trace-event JSON or JSONL, as written by -spans or the serve
// trace endpoint) and print the run decomposition — critical path,
// per-slot utilization, retry/steal cost accounting, cell latency
// quantiles. Exit codes: 0 ok, 1 unparseable capture, 2 usage or
// unreadable file.
func runReport(args []string) int {
	f := newFlags("report", "<spans.json|spans.jsonl>", 0)
	if code, ok := f.parse(args); !ok {
		return code
	}
	if f.NArg() != 1 {
		f.Usage()
		return 2
	}
	file, err := os.Open(f.Arg(0))
	if err != nil {
		return usageError(err)
	}
	defer file.Close()
	spans, err := span.Parse(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.Arg(0), err)
		return 1
	}
	span.Build(spans).Format(os.Stdout)
	return 0
}
