package main

import (
	"bufio"
	"context"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// passCost is what one timed pass cost, measured from outside the
// program under test.
type passCost struct {
	wallS   float64 // wall-clock seconds
	cpuS    float64 // user+system seconds, this process plus reaped children
	mallocs float64 // heap objects allocated in this process
	allocMB float64 // bytes allocated in this process, MB
	peakMB  float64 // resident-set high-water mark during the pass, see peakRSSMB
}

// passResult is what a pass reports about itself: how many operations
// it attempted (each one's output is checked against its reference
// digest) and how many of those failed — an error, a non-200, a refused
// request or a digest mismatch.
type passResult struct {
	attempted, failed int
}

// count records one attempted operation and whether it succeeded.
func (r *passResult) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// add folds another pass's operations into r.
func (r *passResult) add(o passResult) {
	r.attempted += o.attempted
	r.failed += o.failed
}

func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue // Getrusage fails only on a bad who
		}
		total += tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return total
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// timePass runs one pass and measures its cost.
func (b *bench) timePass(ctx context.Context, pass func(context.Context) (passResult, error)) (passCost, passResult, error) {
	b.resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, err := pass(ctx)
	wall := time.Since(t0)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&after)
	return passCost{
		wallS:   wall.Seconds(),
		cpuS:    cpu1 - cpu0,
		mallocs: float64(after.Mallocs - before.Mallocs),
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		peakMB:  b.peakRSSMB(),
	}, res, err
}

// resetPeakRSS starts a new high-water mark, so a pass reports its own
// peak and the run a median of them: the maximum over a whole run is an
// extreme, and on a garbage-collected heap it swings by a quarter from
// run to run. Writing 5 to clear_refs resets only this process's VmHWM.
// Where /proc forbids it the mark keeps running and every pass reports
// the peak so far.
func (b *bench) resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	if b.workers != nil {
		b.workers.maxRSSKB.Store(0)
	}
}

// peakRSSMB is the resident-set high-water mark of this process (VmHWM)
// since the last reset, plus that of the largest worker subprocess
// reaped since then, in MB.
func (b *bench) peakRSSMB() float64 {
	mb := 0.0
	if f, err := os.Open("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					mb = kb / 1e3
				}
			}
		}
		f.Close()
	}
	if b.workers != nil {
		mb += float64(b.workers.maxRSSKB.Load()) / 1e3 // Linux reports KB
	}
	return mb
}

// benchEnv is the machine and the load sizing of a run, recorded with
// every report so numbers are never read without their context.
type benchEnv struct {
	NProc      int
	GoMaxProcs int
	GoVersion  string
	CPUModel   string
	LoadAvg1   string
	// Parallel is the worker / worker-slot / HTTP-client count every
	// workload uses: 2, or 1 on a one-CPU machine.
	Parallel int
}

func readEnv() benchEnv {
	e := benchEnv{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg1:   "unknown",
		Parallel:   2,
	}
	if e.NProc < 2 {
		e.Parallel = 1
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1 = f[0]
		}
	}
	return e
}
