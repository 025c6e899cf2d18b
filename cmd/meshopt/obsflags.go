package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/obs"
)

// obsFlags carries the shared observability flags (-log-level,
// -log-format, and -metrics-addr where bound) a server-side subcommand
// registers on its flag set.
type obsFlags struct {
	level   *string
	format  *string
	sidecar *string
}

// addObsFlags registers the logging flags on fs, plus -metrics-addr when
// sidecar is set. defLevel is the subcommand's default level — info for
// servers and coordinators, warn for workers (whose stderr rides the
// coordinator's, so per-request events are opt-in there).
func addObsFlags(fs *flag.FlagSet, defLevel string, sidecar bool) *obsFlags {
	f := &obsFlags{
		level:  fs.String("log-level", defLevel, "event log level: debug, info, warn or error"),
		format: fs.String("log-format", "text", "event log format: text or json"),
	}
	if sidecar {
		f.sidecar = fs.String("metrics-addr", "", "serve GET /metrics and /debug/pprof/* on this sidecar address (host:port; empty = off)")
	}
	return f
}

// logger resolves the flags into a structured logger writing to w. A
// bad level or format name is a usage error.
func (f *obsFlags) logger(w io.Writer) (*slog.Logger, error) {
	lvl, err := obs.ParseLevel(*f.level)
	if err != nil {
		return nil, err
	}
	format, err := obs.ParseFormat(*f.format)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(w, lvl, format), nil
}

// startSidecar starts the -metrics-addr observability sidecar (GET
// /metrics + /debug/pprof/*) when one was asked for, announcing the
// bound address on stderr. The returned func shuts it down; it is a
// no-op when no sidecar runs.
func (f *obsFlags) startSidecar() (func(), error) {
	if *f.sidecar == "" {
		return func() {}, nil
	}
	bound, shutdown, err := obs.Sidecar(*f.sidecar, obs.Default)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "metrics: listening on http://%s/metrics\n", bound)
	return shutdown, nil
}

// startProfiles starts the -pprof-cpu / -pprof-mem file profiles. The
// returned stop func ends the CPU profile and writes the heap profile
// (after a final GC, so live bytes reflect retained state, not
// garbage); call it exactly once when the measured work is done.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			firstErr = cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}
