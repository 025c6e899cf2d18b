package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// runStats implements the `stats` subcommand: fetch a running
// `meshopt serve` instance's observability surfaces and print them to
// stdout. The default is the GET /v1/stats JSON snapshot; -metrics
// fetches the Prometheus text exposition instead, -path fetches an
// arbitrary GET path (e.g. /debug/pprof/), so scripts never need curl,
// and -watch polls /v1/stats and renders a one-line delta view per
// sample (jobs by state, queue depth, cache bytes).
// Exit codes: 0 ok, 1 server unreachable or non-200, 2 usage.
func runStats(args []string) int {
	f := newFlags("stats", "-addr http://host:port [-metrics | -path /some/path | -watch 2s [-samples n]]", withServer)
	metrics := f.Bool("metrics", false, "fetch /metrics (Prometheus text) instead of /v1/stats")
	path := f.String("path", "", "fetch this GET path instead (e.g. /debug/pprof/)")
	watch := f.Duration("watch", 0, "poll /v1/stats at this interval and print one delta line per sample (e.g. -watch 2s)")
	samples := f.Int("samples", 0, "with -watch: stop after this many samples (0 = until interrupted)")
	if code, ok := f.parse(args); !ok {
		return code
	}
	if f.NArg() > 0 {
		f.Usage()
		return 2
	}
	exclusive := 0
	for _, set := range []bool{*metrics, *path != "", *watch != 0} {
		if set {
			exclusive++
		}
	}
	if exclusive > 1 {
		fmt.Fprintln(os.Stderr, "-metrics, -path and -watch are mutually exclusive")
		return 2
	}
	if *watch < 0 {
		fmt.Fprintln(os.Stderr, "-watch interval must be positive")
		return 2
	}
	if *samples < 0 {
		fmt.Fprintln(os.Stderr, "-samples must be non-negative")
		return 2
	}
	if *samples > 0 && *watch == 0 {
		fmt.Fprintln(os.Stderr, "-samples requires -watch")
		return 2
	}

	base := f.server()
	if *watch != 0 {
		return watchStats(base, *watch, *samples)
	}

	p := "/v1/stats"
	switch {
	case *metrics:
		p = "/metrics"
	case *path != "":
		if !strings.HasPrefix(*path, "/") {
			fmt.Fprintf(os.Stderr, "-path must start with / (got %q)\n", *path)
			return 2
		}
		p = *path
	}
	body, err := fetch(base + p)
	if err != nil {
		return failure(err)
	}
	os.Stdout.Write(body)
	if len(body) > 0 && body[len(body)-1] != '\n' {
		fmt.Println()
	}
	return 0
}

// fetch GETs a URL and returns its body, folding a non-200 status into
// the error.
func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// watchSample is the slice of /v1/stats the delta view renders. Extra
// fields in the snapshot (uptime, the metrics registry) are ignored, so
// the view survives schema growth.
type watchSample struct {
	Jobs         map[string]int `json:"jobs"`
	QueueDepth   int            `json:"queue_depth"`
	Running      int            `json:"running"`
	CacheEntries int            `json:"cache_entries"`
	CacheBytes   int64          `json:"cache_bytes"`
}

// watchStats polls /v1/stats at the given interval and prints one line
// per sample: absolute job counts and cache size plus the delta of
// completed jobs since the previous sample. The first sample prints
// immediately, so `-watch 1s -samples 1` is a cheap liveness probe.
func watchStats(base string, interval time.Duration, samples int) int {
	var prev watchSample
	havePrev := false
	for n := 0; ; n++ {
		if n > 0 {
			time.Sleep(interval)
		}
		body, err := fetch(base + "/v1/stats")
		if err != nil {
			return failure(err)
		}
		var s watchSample
		if err := json.Unmarshal(body, &s); err != nil {
			fmt.Fprintf(os.Stderr, "bad /v1/stats payload: %v\n", err)
			return 1
		}
		delta := ""
		if havePrev {
			delta = fmt.Sprintf("  Δdone %+d Δfailed %+d",
				s.Jobs["done"]-prev.Jobs["done"], s.Jobs["failed"]-prev.Jobs["failed"])
		}
		fmt.Printf("%s jobs queued=%d running=%d done=%d failed=%d  queue %d  cache %d entries, %d B%s\n",
			time.Now().Format("15:04:05"),
			s.Jobs["queued"], s.Jobs["running"], s.Jobs["done"], s.Jobs["failed"],
			s.QueueDepth, s.CacheEntries, s.CacheBytes, delta)
		prev, havePrev = s, true
		if samples > 0 && n+1 >= samples {
			return 0
		}
	}
}
