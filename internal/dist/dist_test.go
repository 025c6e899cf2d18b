package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist/fault"
	_ "repro/internal/experiments" // register the figure suites
	"repro/internal/experiments/exp"
	"repro/internal/scenario"
	"repro/internal/scenario/sink"
)

// toyDist is a fast single-record experiment for coordinator fault
// tests.
type toyDist struct{ n int }

func (toyDist) Name() string     { return "disttoy" }
func (toyDist) Describe() string { return "coordinator test experiment" }

func (t toyDist) Cells(seed int64, sc exp.Scale) []exp.Cell {
	cells := make([]exp.Cell, t.n)
	for i := range cells {
		cells[i] = exp.Cell{Seed: seed, Data: i}
	}
	return cells
}

func (toyDist) RunCell(c exp.Cell) sink.Record {
	i := c.Data.(int)
	return sink.Record{Fields: []sink.Field{sink.F("v", float64(c.Seed)*1000+float64(i))}}
}

type toySum struct {
	Sum   float64
	Cells int
}

func (r toySum) Print(w io.Writer) {}

func (toyDist) Reduce(recs <-chan sink.Record) exp.Result {
	var res toySum
	for rec := range recs {
		res.Sum += rec.Float("v")
		res.Cells++
	}
	return res
}

// toyPanic is toyDist with a cell that panics.
type toyPanic struct{ toyDist }

func (toyPanic) Name() string { return "distpanic" }

func (t toyPanic) RunCell(c exp.Cell) sink.Record {
	if c.Data.(int) == 3 {
		panic("cell exploded")
	}
	return t.toyDist.RunCell(c)
}

func init() {
	exp.Register(toyDist{n: 10})
	exp.Register(toyPanic{toyDist{n: 10}})
}

// testSpawner serves long-lived workers in-process over pipes, driving
// ServeWork under an explicit fault schedule — the same injector the
// subprocess path reads from MESHOPT_FAULT.
type testSpawner struct {
	sched   *fault.Schedule
	onSpawn func(spawns int) // observes each spawn, after the worker started
	hold    bool             // send record lines with the control line after them
	mu      sync.Mutex
	spawns  int
}

// mustSchedule parses a fault spec or dies.
func mustSchedule(t *testing.T, spec string) *fault.Schedule {
	t.Helper()
	s, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *testSpawner) spawnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spawns
}

func (s *testSpawner) Spawn(ctx context.Context, slot int) (*Worker, error) {
	s.mu.Lock()
	s.spawns++
	n := s.spawns
	s.mu.Unlock()
	inR, inW := io.Pipe()
	// Output goes through an OS pipe, as from a worker process: its
	// buffer lets the coordinator's reader see several lines per read.
	outR, outW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	release := make(chan struct{})
	var once sync.Once
	kill := func() {
		once.Do(func() {
			// An in-process "SIGKILL": release any hanging injected
			// fault and poison both pipes so worker-side reads and
			// writes fail, which aborts its exp.Run at the next cell
			// boundary via the sink-error cancellation path.
			close(release)
			inR.CloseWithError(io.ErrClosedPipe)
			outW.Close()
		})
	}
	var out io.Writer = outW
	if s.hold {
		out = &heldWriter{w: outW}
	}
	done := make(chan error, 1)
	go func() {
		err := ServeWork(inR, out, s.sched, release, nil)
		outW.Close()
		done <- err
	}()
	if s.onSpawn != nil {
		s.onSpawn(n)
	}
	return &Worker{In: inW, Out: outR, Kill: kill, Wait: func() error { return <-done }}, nil
}

// heldWriter holds a worker's record lines back until the control line
// that follows them, then writes them all at once: the coordinator's
// reader sees a whole shard stream in one read and merges it as one
// batch.
type heldWriter struct {
	w   io.Writer
	buf []byte
}

func (h *heldWriter) Write(p []byte) (int, error) {
	h.buf = append(h.buf, p...)
	if len(p) == 0 || p[0] != '#' {
		return len(p), nil
	}
	_, err := h.w.Write(h.buf)
	h.buf = h.buf[:0]
	return len(p), err
}

// unsharded renders the job's byte stream and reduction in-process.
func unsharded(t *testing.T, job Job) ([]byte, exp.Result) {
	t.Helper()
	e, sc, err := job.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := sink.NewJSONL(&buf)
	res, err := exp.Run(e, job.Seed, sc, exp.Options{Sink: s})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	return buf.Bytes(), res
}

// checkRun runs the coordinator and asserts the merged bytes and the
// reduction match the unsharded run.
func checkRun(t *testing.T, job Job, dir string, o Options) *Report {
	t.Helper()
	rep, err := Run(context.Background(), job, dir, o)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, wantRes := unsharded(t, job)
	got, err := os.ReadFile(filepath.Join(dir, "merged.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Fatalf("merged bytes differ from the unsharded stream:\nmerged:\n%s\nfull:\n%s", got, wantBytes)
	}
	if !reflect.DeepEqual(rep.Result, wantRes) {
		t.Fatalf("reduction differs: %+v vs %+v", rep.Result, wantRes)
	}
	return rep
}

func toyJob(shards int) Job {
	return Job{Experiment: "disttoy", Seed: 5, Scale: "quick", Shards: shards}
}

func TestCoordByteIdenticalAcrossSlotCounts(t *testing.T) {
	for _, slots := range []int{1, 2, 4} {
		rep := checkRun(t, toyJob(3), t.TempDir(), Options{Slots: slots, Spawner: &testSpawner{}})
		if len(rep.Ran) != 3 || len(rep.Reused) != 0 {
			t.Fatalf("slots=%d: ran %v reused %v", slots, rep.Ran, rep.Reused)
		}
	}
}

func TestCoordLongLivedWorkerServesManyShards(t *testing.T) {
	// One slot, three shards: the long-lived protocol must serve all
	// three requests over a single spawned worker (the point of the
	// refactor: per-process startup — and warm in-process caches like
	// fig10's probe phase — paid once per worker, not per shard).
	sp := &testSpawner{}
	rep := checkRun(t, toyJob(3), t.TempDir(), Options{Slots: 1, Spawner: sp})
	if sp.spawnCount() != 1 {
		t.Fatalf("3 shards over 1 slot spawned %d workers, want 1", sp.spawnCount())
	}
	if rep.Spawns != 1 {
		t.Fatalf("report says %d spawns, want 1", rep.Spawns)
	}
}

func TestCoordRetriesFlakyWorker(t *testing.T) {
	// Shard 1's worker is killed after 2 records on its first two
	// attempts; the third succeeds. The retried stream's already-merged
	// prefix is verified and skipped, and the final bytes are identical.
	sp := &testSpawner{sched: mustSchedule(t, "1/kill@2x2")}
	rep := checkRun(t, toyJob(2), t.TempDir(), Options{Slots: 2, Spawner: sp, Backoff: 1})
	if rep.Attempts[1] != 3 {
		t.Fatalf("shard 1 took %d attempts, want 3", rep.Attempts[1])
	}
	// Every kill retires the slot's worker, so the pool respawned.
	if sp.spawnCount() < 3 {
		t.Fatalf("expected at least 3 spawns (2 killed + respawn), got %d", sp.spawnCount())
	}
}

func TestCoordGivesUpAfterMaxAttempts(t *testing.T) {
	dir := t.TempDir()
	sp := &testSpawner{sched: mustSchedule(t, "1/kill@1x2")}
	_, err := Run(context.Background(), toyJob(3), dir, Options{Slots: 3, Spawner: sp, MaxAttempts: 2, Backoff: 1})
	if err == nil || !strings.Contains(err.Error(), "shard 1/3 failed after 2 attempt(s)") {
		t.Fatalf("err = %v", err)
	}
	// The healthy shards must have checkpointed for the resume.
	for _, i := range []int{0, 2} {
		if _, _, _, ok := sink.ValidateLog(shardPath(dir, i)); !ok {
			t.Fatalf("shard %d not checkpointed after the run failed", i)
		}
	}
	if _, _, _, ok := sink.ValidateLog(shardPath(dir, 1)); ok {
		t.Fatal("failed shard 1 validated as complete")
	}
	// Resume without faults: only shard 1 is re-dispatched.
	rep := checkRun(t, toyJob(3), dir, Options{Slots: 2, Spawner: &testSpawner{}})
	if !reflect.DeepEqual(rep.Reused, []int{0, 2}) || !reflect.DeepEqual(rep.Ran, []int{1}) {
		t.Fatalf("resume reused %v ran %v", rep.Reused, rep.Ran)
	}
}

func TestCoordAttemptTimeoutUnwedgesHungWorker(t *testing.T) {
	// Shard 1's first worker hangs (stream open, no records). With an
	// AttemptTimeout the hang is killed like any other failure and the
	// retry completes the run.
	sp := &testSpawner{sched: mustSchedule(t, "1/hang@0x1")}
	rep := checkRun(t, toyJob(2), t.TempDir(), Options{
		Slots:          2,
		Spawner:        sp,
		Backoff:        1,
		AttemptTimeout: 50 * time.Millisecond,
	})
	if rep.Attempts[1] != 2 {
		t.Fatalf("shard 1 took %d attempts, want 2", rep.Attempts[1])
	}
}

func TestCoordStealUnwedgesHungWorkerMidShard(t *testing.T) {
	// Shard 1's first worker emits 2 of its 4 records (cells 1, 4 of 10
	// over 3 shards... cells 1,4,7 for shard 1 of toyDist n=10), then
	// wedges — with NO attempt timeout. The frontier stalls at the
	// wedged shard's next cell; after StealAfter the steal check
	// kills the attempt and re-dispatches the residue class. The
	// thief's stream replays the 2 already-merged records, which are
	// verified against the running SHA-256 and skipped, and the merged
	// bytes stay identical to the unsharded run.
	sp := &testSpawner{sched: mustSchedule(t, "1/hang@2x1")}
	rep := checkRun(t, toyJob(3), t.TempDir(), Options{
		Slots:      3,
		Spawner:    sp,
		Backoff:    1,
		StealAfter: 50 * time.Millisecond,
	})
	if rep.Steals[1] == 0 {
		t.Fatalf("shard 1 was never stolen (attempts %v, steals %v)", rep.Attempts, rep.Steals)
	}
	if rep.Attempts[1] < 2 {
		t.Fatalf("shard 1 took %d dispatches, want >= 2", rep.Attempts[1])
	}
}

// syncBuf is a goroutine-safe log buffer (shard goroutines log
// concurrently).
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestCoordStealSuffixDispatchResumesAtFrontier(t *testing.T) {
	// Shard 1 (cells 1, 4, 7 of toyDist's 10) wedges after pushing cells
	// 1 and 4. The steal's thief must be suffix-dispatched from cell 4 —
	// the stolen shard's merge frontier — rather than re-streaming the
	// residue class from cell 0: the part file supplies cell 1 verbatim
	// (verified by prefix hash) and only cell 4's line is replayed.
	// checkRun pins the merged bytes to the unsharded stream, so the
	// reused prefix is covered by the byte-identity contract too.
	var log syncBuf
	dir := t.TempDir()
	sp := &testSpawner{sched: mustSchedule(t, "1/hang@2x1")}
	rep := checkRun(t, toyJob(3), dir, Options{
		Slots:      3,
		Spawner:    sp,
		Backoff:    1,
		StealAfter: 50 * time.Millisecond,
		Logger:     slog.New(slog.NewTextHandler(&log, nil)),
	})
	if rep.Steals[1] == 0 {
		t.Fatalf("shard 1 was never stolen (attempts %v, steals %v)", rep.Attempts, rep.Steals)
	}
	if !strings.Contains(log.String(), `msg="stalled attempt killed, re-dispatching" shard=1 shards=3 from_cell=4`) {
		t.Fatalf("thief was not suffix-dispatched from the frontier cell:\n%s", log.String())
	}
	// A checkpoint assembled from a reused prefix plus the thief's
	// suffix must still be a valid, self-validating artifact (the
	// coordinator writes the whole-stream marker itself).
	if n, _, _, ok := sink.ValidateLog(shardPath(dir, 1)); !ok || n != 3 {
		t.Fatalf("suffix-assembled checkpoint invalid: records=%d ok=%v", n, ok)
	}
}

func TestCoordBroadcastChaosKillAndStealByteIdentical(t *testing.T) {
	// The fault-injection acceptance case for the dissemination family:
	// a 3-shard broadcast job where shard 1's worker is killed mid-cell
	// and shard 2's worker wedges mid-cell (6 records = one full cell
	// plus a partial one), forcing a steal whose thief resumes at the
	// frontier cell. The merged bytes must still be identical to the
	// unsharded `meshopt fig broadcast` stream.
	if testing.Short() {
		t.Skip("runs the broadcast suite several times")
	}
	var log syncBuf
	job := Job{Experiment: "broadcast", Seed: 4, Scale: "quick", Shards: 3}
	sp := &testSpawner{sched: mustSchedule(t, "1/kill@2x1,2/hang@6x1")}
	rep := checkRun(t, job, t.TempDir(), Options{
		Slots:      3,
		Spawner:    sp,
		Backoff:    1,
		StealAfter: 50 * time.Millisecond,
		Logger:     slog.New(slog.NewTextHandler(&log, nil)),
	})
	if rep.Attempts[1] != 2 {
		t.Fatalf("killed shard 1 took %d attempts, want 2", rep.Attempts[1])
	}
	if rep.Steals[2] == 0 {
		t.Fatalf("hung shard 2 was never stolen (attempts %v, steals %v)", rep.Attempts, rep.Steals)
	}
	if !regexp.MustCompile(`msg="stalled attempt killed, re-dispatching" shard=\d+ shards=3 from_cell=[1-9]`).MatchString(log.String()) {
		t.Fatalf("stolen shard was not suffix-dispatched:\n%s", log.String())
	}
}

func TestCoordCorruptStreamIsRetriedNotMerged(t *testing.T) {
	// Shard 1's first attempt has record line 1 corrupted in transit
	// (first byte flipped, after hashing). The line fails to decode, so
	// it is never merged or checkpointed; the attempt fails and the
	// clean retry produces identical bytes.
	sp := &testSpawner{sched: mustSchedule(t, "1/corrupt@1x1")}
	rep := checkRun(t, toyJob(2), t.TempDir(), Options{Slots: 2, Spawner: sp, Backoff: 1})
	if rep.Attempts[1] != 2 {
		t.Fatalf("shard 1 took %d attempts, want 2 (corrupt line must fail the attempt)", rep.Attempts[1])
	}
}

func TestCoordStallThenRecoverNeedsNoRetry(t *testing.T) {
	// A stall shorter than any deadline is just latency: the worker
	// recovers and the run completes on first attempts.
	sp := &testSpawner{sched: mustSchedule(t, "1/stall@1=30ms")}
	rep := checkRun(t, toyJob(2), t.TempDir(), Options{Slots: 2, Spawner: sp})
	if rep.Attempts[1] != 1 {
		t.Fatalf("shard 1 took %d attempts, want 1", rep.Attempts[1])
	}
}

func TestCoordCancelReturnsPromptly(t *testing.T) {
	// Every shard hangs; cancelling the run context must kill the
	// in-flight workers and return well within the ~2s budget instead
	// of waiting out the fan-out.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp := &testSpawner{sched: mustSchedule(t, "0/hang@0,1/hang@0,2/hang@0"), onSpawn: func(n int) {
		if n == 3 {
			cancel()
		}
	}}
	start := time.Now()
	_, err := Run(ctx, toyJob(3), t.TempDir(), Options{Slots: 3, Spawner: sp})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled run took %v to return, want < 2s", d)
	}
}

func TestCoordKillAndResume(t *testing.T) {
	// Simulated coordinator death: shards 1 and 2 hang until the
	// context is cancelled — which happens the moment shard 0's
	// checkpoint lands — so the run dies with exactly one shard done.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp := &testSpawner{sched: mustSchedule(t, "1/hang@0,2/hang@0")}
	_, err := Run(ctx, toyJob(3), dir, Options{
		Slots:   3,
		Spawner: sp,
		onShardDone: func(shard int) {
			if shard == 0 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	// The fresh coordinator re-runs only the missing residue classes.
	rep := checkRun(t, toyJob(3), dir, Options{Slots: 2, Spawner: &testSpawner{}})
	if !reflect.DeepEqual(rep.Reused, []int{0}) || !reflect.DeepEqual(rep.Ran, []int{1, 2}) {
		t.Fatalf("resume reused %v ran %v", rep.Reused, rep.Ran)
	}
}

func TestCoordDetectsCorruptedShardFile(t *testing.T) {
	dir := t.TempDir()
	checkRun(t, toyJob(3), dir, Options{Slots: 3, Spawner: &testSpawner{}})

	corrupt := func(mutate func([]byte) []byte) {
		t.Helper()
		path := shardPath(dir, 1)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		rep := checkRun(t, toyJob(3), dir, Options{Slots: 2, Spawner: &testSpawner{}})
		if !reflect.DeepEqual(rep.Reused, []int{0, 2}) || !reflect.DeepEqual(rep.Ran, []int{1}) {
			t.Fatalf("after corruption: reused %v ran %v", rep.Reused, rep.Ran)
		}
	}
	// A flipped byte inside a record: the marker's hash no longer
	// matches.
	corrupt(func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[bytes.IndexByte(c, ':')+1] ^= 1
		return c
	})
	// The completion marker stripped: an interrupted write.
	corrupt(func(b []byte) []byte {
		return b[:bytes.LastIndex(b, []byte("#done"))]
	})
}

func TestCoordRejectsForeignRunDirectory(t *testing.T) {
	dir := t.TempDir()
	checkRun(t, toyJob(2), dir, Options{Slots: 2, Spawner: &testSpawner{}})
	other := toyJob(2)
	other.Seed = 6
	if _, err := Run(context.Background(), other, dir, Options{Slots: 2, Spawner: &testSpawner{}}); err == nil ||
		!strings.Contains(err.Error(), "different job") {
		t.Fatalf("err = %v, want manifest mismatch", err)
	}
}

func TestCoordScenarioSweepByName(t *testing.T) {
	job := Job{Experiment: "fairness", Scale: "quick", Shards: 3}
	spec, _ := scenario.Lookup("fairness")
	job.Seed = spec.Seed
	rep := checkRun(t, job, t.TempDir(), Options{Slots: 2, Spawner: &testSpawner{}})
	if rep.Cells != 6 {
		t.Fatalf("fairness sweep has %d cells, want 6", rep.Cells)
	}
	if _, ok := rep.Result.(*scenario.SweepResult); !ok {
		t.Fatalf("result is %T, want *scenario.SweepResult", rep.Result)
	}
}

func TestCoordInlineSpecJob(t *testing.T) {
	spec, _ := scenario.Lookup("fairness")
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Experiment: spec.Name, Spec: raw, Seed: spec.Seed, Scale: "quick", Shards: 2}
	checkRun(t, job, t.TempDir(), Options{Slots: 2, Spawner: &testSpawner{}})
}

func TestRetryDelaySchedule(t *testing.T) {
	base := 100 * time.Millisecond
	// Attempt n waits n×base capped at 5×base, shortened by at most
	// retryJitter of itself.
	for n, full := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		3: 300 * time.Millisecond,
		5: 500 * time.Millisecond,
		9: 500 * time.Millisecond,
	} {
		lo := time.Duration(float64(full) * (1 - retryJitter))
		if got := retryDelay(base, 5, 1, n); got < lo || got > full {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", n, got, lo, full)
		}
	}
	// Jitter shortens deterministically: same inputs, same delay, but
	// different across shards.
	d1 := retryDelay(base, 5, 1, 2)
	d2 := retryDelay(base, 5, 1, 2)
	if d1 != d2 {
		t.Fatalf("jittered delay not deterministic: %v vs %v", d1, d2)
	}
	distinct := map[time.Duration]bool{}
	for shard := 0; shard < 8; shard++ {
		distinct[retryDelay(base, 5, shard, 2)] = true
	}
	if len(distinct) < 2 {
		t.Fatal("jitter does not decorrelate shards")
	}
}

// The acceptance gate on real figure suites: byte identity under an
// injected worker failure (fig10) and under a mid-run kill + resume
// (fig14).
func TestCoordFig10SurvivesWorkerFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig10 suite several times")
	}
	job := Job{Experiment: "fig10", Seed: 4, Scale: "quick", Shards: 3}
	sp := &testSpawner{sched: mustSchedule(t, "1/kill@2x1")}
	rep := checkRun(t, job, t.TempDir(), Options{Slots: 2, Spawner: sp, Backoff: 1})
	if rep.Attempts[1] != 2 {
		t.Fatalf("shard 1 took %d attempts, want 2", rep.Attempts[1])
	}
}

func TestCoordFig14KillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig14 suite several times")
	}
	dir := t.TempDir()
	job := Job{Experiment: "fig14", Seed: 9, Scale: "quick", Shards: 3}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp := &testSpawner{sched: mustSchedule(t, "1/hang@0,2/hang@0")}
	_, err := Run(ctx, job, dir, Options{
		Slots:   3,
		Spawner: sp,
		onShardDone: func(shard int) {
			if shard == 0 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	rep := checkRun(t, job, dir, Options{Slots: 2, Spawner: &testSpawner{}})
	if !reflect.DeepEqual(rep.Reused, []int{0}) {
		t.Fatalf("resume reused %v, want [0]", rep.Reused)
	}
}

func TestValidateShardFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard_0.jsonl")
	for name, content := range map[string]string{
		"empty":        "",
		"no marker":    `{"scenario":"x","series":"cell","cell":0}` + "\n",
		"bad count":    `{"scenario":"x","series":"cell","cell":0}` + "\n#done records=2 sha256=00\n",
		"data after":   "#done records=0 sha256=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n" + `{"scenario":"x","series":"cell","cell":0}` + "\n",
		"marker alone": "#done records=1 sha256=deadbeef\n",
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, ok := sink.ValidateLog(path); ok {
			t.Fatalf("%s: validated", name)
		}
	}
}

// TestWorkerAnswersCellPanicAndServesNext: a cell panic fails the one
// request with an #error naming the cell, after the records before it,
// and the worker goes on to serve the next request.
func TestWorkerAnswersCellPanicAndServesNext(t *testing.T) {
	var in bytes.Buffer
	for _, name := range []string{"distpanic", "disttoy"} {
		req, err := json.Marshal(workRequest{
			Job:   Job{Experiment: name, Seed: 1, Scale: "quick", Shards: 1},
			Shard: exp.Shard{Index: 0, Count: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		in.Write(append(req, '\n'))
	}
	var out bytes.Buffer
	if err := ServeWork(&in, &out, nil, nil, nil); err != nil {
		t.Fatalf("worker exited with %v", err)
	}
	var control []string
	records := 0
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		if sink.IsRecord([]byte(line)) {
			records++
			continue
		}
		control = append(control, line)
	}
	if len(control) != 5 || control[0] != ReadyMarker || control[2] != ReadyMarker ||
		!strings.HasPrefix(control[3], "#done records=10 ") || control[4] != ReadyMarker {
		t.Fatalf("control lines %q, want #ready, #error, #ready, #done, #ready", control)
	}
	if !strings.HasPrefix(control[1], errorPrefix) || !strings.Contains(control[1], "cell 3 panicked: cell exploded") {
		t.Fatalf("error answer %q does not name the panicking cell", control[1])
	}
	if records != 3+10 {
		t.Fatalf("%d record lines, want 3 before the panic and 10 after", records)
	}
}

// TestTemplateWorkerKillReachesEOF: a template worker runs under
// /bin/sh, which forks the command that holds stdout. Kill must take
// that child too, so Out reaches EOF promptly rather than when the
// child exits on its own.
func TestTemplateWorkerKillReachesEOF(t *testing.T) {
	// The shell forks sleep before it echoes, so once "ready" arrives a
	// child holds Out open.
	w, err := TemplateSpawner("sleep 30 & echo ready; wait", nil).Spawn(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	out := bufio.NewReader(w.Out)
	if line, err := out.ReadString('\n'); line != "ready\n" {
		t.Fatalf("first line %q (%v), want ready", line, err)
	}
	eof := make(chan struct{})
	go func() {
		io.Copy(io.Discard, out)
		close(eof)
	}()
	w.Kill()
	select {
	case <-eof:
	case <-time.After(2 * time.Second):
		t.Fatal("Out still open 2s after Kill: the shell's child survived")
	}
	if err := w.Wait(); err == nil {
		t.Fatal("Wait returned nil for a killed worker")
	}
}
