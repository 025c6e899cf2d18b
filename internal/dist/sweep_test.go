package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist/fault"
	"repro/internal/obs/span"
	"repro/internal/scenario/sink"
)

// TestCoordScheduleSweep drives the coordinator through every cut point
// of every shard under each fault family, one run per schedule: a kill
// or a corrupt line on the first attempt (retried), a kill on every
// attempt (MaxAttempts exhausted), a hang stolen once StealAfter passes,
// a hang killed at its AttemptTimeout, and a checkpoint-log write that
// fails once, in the middle of a batch the loop has already merged.
// Every run must merge bytes equal to the unsharded stream — or, when
// the fault outlasts MaxAttempts, fail with the injected fault in its
// error chain — with attempts and steals within their bounds, the first
// Slots dispatches going to shards 0..Slots-1 in order, and no reader,
// worker or timer goroutine left behind.
func TestCoordScheduleSweep(t *testing.T) {
	const (
		cells       = 10 // toyDist's
		shards      = 3
		slots       = 2
		maxAttempts = 3
	)
	job := toyJob(shards)
	want, _ := unsharded(t, job)
	records := func(shard int) int { return (cells - shard + shards - 1) / shards }
	type schedule struct {
		spec       string
		o          Options
		shard      int
		fires      bool // the cut point lies inside the shard's stream
		exhausts   bool // the fault fires on every attempt
		stolenOnly bool // the fault is cleared by a steal, not a retry
		cut        int  // the record the fault hits
		logFail    bool // the first log write of that record fails
	}
	var sweep []schedule
	for shard := 0; shard < shards; shard++ {
		for cut := 0; cut <= records(shard); cut++ {
			one := fmt.Sprintf("%d/%%s@%dx1", shard, cut)
			fires := cut < records(shard)
			sweep = append(sweep,
				schedule{spec: fmt.Sprintf(one, "kill"), shard: shard, fires: fires},
				schedule{spec: fmt.Sprintf(one, "corrupt"), shard: shard, fires: fires},
				schedule{spec: fmt.Sprintf("%d/kill@%d", shard, cut), shard: shard, fires: fires, exhausts: fires},
				schedule{spec: fmt.Sprintf(one, "hang"), o: Options{StealAfter: 50 * time.Millisecond},
					shard: shard, fires: fires, stolenOnly: true},
				schedule{spec: fmt.Sprintf(one, "hang"), o: Options{AttemptTimeout: 200 * time.Millisecond},
					shard: shard, fires: fires},
			)
			if fires {
				sweep = append(sweep, schedule{spec: fmt.Sprintf(one, "logfail"),
					shard: shard, cut: cut, fires: true, logFail: true})
			}
		}
	}

	baseline := runtime.NumGoroutine()
	for _, sc := range sweep {
		name := sc.spec
		if sc.o.StealAfter > 0 {
			name += " steal"
		} else if sc.o.AttemptTimeout > 0 {
			name += " timeout"
		}
		o := sc.o
		o.Slots, o.MaxAttempts, o.Backoff = slots, maxAttempts, 1
		sp := &testSpawner{}
		if sc.logFail {
			// Each first attempt's records arrive in one batch, so every
			// cut point but the shard's last fails mid-batch. toyDist's
			// cell c is record c/shards of shard c%shards.
			sp.hold = true
			failOnce(t, job, sc.shard+sc.cut*shards)
		} else {
			sp.sched = mustSchedule(t, sc.spec)
		}
		o.Spawner = sp
		dir := t.TempDir()
		rec := span.NewRecorder()
		rep, err := Run(span.NewContext(context.Background(), rec.Root("coord")), job, dir, o)
		logWrite = (*sink.Log).Write

		switch {
		case sc.exhausts:
			if err == nil || !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("%s: err = %v, want the injected fault after %d attempts", name, err, maxAttempts)
			}
		case err != nil:
			t.Fatalf("%s: %v", name, err)
		default:
			got, err := os.ReadFile(filepath.Join(dir, "merged.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: merged bytes differ from the unsharded stream:\n%s", name, got)
			}
		}
		for s := 0; s < shards; s++ {
			if a := rep.Attempts[s] - rep.Steals[s]; a < 1 || a > maxAttempts || rep.Steals[s] > maxAttempts {
				t.Fatalf("%s: shard %d took %d dispatches with %d steals", name, s, rep.Attempts[s], rep.Steals[s])
			}
		}
		attempts, steals := rep.Attempts[sc.shard], rep.Steals[sc.shard]
		switch {
		case !sc.fires:
		case sc.exhausts && attempts != maxAttempts:
			t.Fatalf("%s: the faulty shard took %d attempts, want all %d", name, attempts, maxAttempts)
		case sc.stolenOnly && steals == 0:
			t.Fatalf("%s: the hung shard was never stolen (%d dispatches)", name, attempts)
		case !sc.exhausts && !sc.stolenOnly && attempts != 2:
			t.Fatalf("%s: the faulty shard took %d attempts, want 2", name, attempts)
		}

		var first []int
		for _, d := range rec.Snapshot() {
			if d.Name == "dispatch" && len(first) < slots {
				n, _ := strconv.Atoi(d.Attr("shard"))
				first = append(first, n)
			}
		}
		if fmt.Sprint(first) != "[0 1]" {
			t.Fatalf("%s: first dispatches went to shards %v, want [0 1]", name, first)
		}

		// Run has returned, so every reader has exited or is about to.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s: %d goroutines left over a baseline of %d:\n%s",
					name, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// failOnce makes the checkpoint-log write of toyDist's cell fail once,
// as a full disk would, with nothing written.
func failOnce(t *testing.T, job Job, cell int) {
	t.Helper()
	var failed atomic.Bool
	logWrite = func(lg *sink.Log, p []byte) (int, error) {
		rec, err := sink.DecodeJSONL(bytes.TrimSuffix(p, []byte("\n")))
		if err != nil {
			t.Errorf("log write of a line that is not a record: %q", p)
		} else if int(rec.Float("v"))-int(job.Seed)*1000 == cell && failed.CompareAndSwap(false, true) {
			return 0, errors.New("injected log write failure")
		}
		return lg.Write(p)
	}
}
