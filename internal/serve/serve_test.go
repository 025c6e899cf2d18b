package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	_ "repro/internal/experiments" // register the figure suites
	"repro/internal/experiments/exp"
	"repro/internal/scenario"
	"repro/internal/scenario/sink"
)

// toyServe is a deterministic single-record experiment instrumented for
// serve tests: a global counter observes every cell execution (the
// single-flight and resume assertions), and an optional per-cell delay
// keeps a run in flight long enough to race submissions against it.
type toyServe struct{ n int }

var (
	toyCells int64 // RunCell invocations, across all servers in the process
	toyDelay int64 // per-cell sleep in ms
)

func (toyServe) Name() string     { return "servetoy" }
func (toyServe) Describe() string { return "serve test experiment" }

func (t toyServe) Cells(seed int64, sc exp.Scale) []exp.Cell {
	cells := make([]exp.Cell, t.n)
	for i := range cells {
		cells[i] = exp.Cell{Seed: seed, Data: i}
	}
	return cells
}

func (toyServe) RunCell(c exp.Cell) sink.Record {
	atomic.AddInt64(&toyCells, 1)
	if d := atomic.LoadInt64(&toyDelay); d > 0 {
		time.Sleep(time.Duration(d) * time.Millisecond)
	}
	i := c.Data.(int)
	return sink.Record{Fields: []sink.Field{
		sink.F("v", float64(c.Seed)*1000+float64(i)),
		sink.F("sq", float64(i*i)),
	}}
}

type toyServeResult struct{ Sum float64 }

func (r toyServeResult) Print(w io.Writer) { fmt.Fprintf(w, "servetoy: sum=%g\n", r.Sum) }

func (toyServe) Reduce(recs <-chan sink.Record) exp.Result {
	var res toyServeResult
	for rec := range recs {
		res.Sum += rec.Float("v")
	}
	return res
}

const toyN = 8

// toyPanic is servetoy with a cell that panics.
type toyPanic struct{ toyServe }

func (toyPanic) Name() string { return "servepanic" }

func (t toyPanic) RunCell(c exp.Cell) sink.Record {
	if c.Data.(int) == 2 {
		panic("cell exploded")
	}
	return t.toyServe.RunCell(c)
}

func init() {
	exp.Register(toyServe{n: toyN})
	exp.Register(toyPanic{toyServe{n: toyN}})
}

// refStream renders the experiment's unsharded JSONL stream — the bytes
// `meshopt fig <name>` would write to stdout.
func refStream(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	e, ok := exp.Find(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	var buf bytes.Buffer
	s := sink.NewJSONL(&buf)
	if _, err := exp.Run(e, seed, exp.Quick(), exp.Options{Sink: s}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, dir string, o Options) (*Server, *httptest.Server) {
	t.Helper()
	o.CacheDir = dir
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs: %s: %s", resp.Status, msg)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func getRecords(t *testing.T, ts *httptest.Server, id, query string) ([]byte, http.Header) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/records" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET records: %s: %s", resp.Status, body)
	}
	return body, resp.Header
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestJobKeyCanonicalization(t *testing.T) {
	key := func(j dist.Job) string {
		t.Helper()
		k, err := JobKey(j)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := dist.Job{Experiment: "servetoy", Seed: 3, Scale: "quick", Shards: 1}
	wide := base
	wide.Shards = 16
	if key(base) != key(wide) {
		t.Error("shard count leaked into the content address")
	}
	alias := dist.Job{Experiment: "fig7", Seed: 1, Scale: "quick"}
	canon := dist.Job{Experiment: "netvalid", Seed: 1, Scale: "quick"}
	if key(alias) != key(canon) {
		t.Error("alias and canonical name map to different keys")
	}
	if spec, ok := scenario.Lookup("quickstart"); ok {
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		named := dist.Job{Experiment: "quickstart", Seed: 1, Scale: "quick"}
		inline := dist.Job{Spec: raw, Seed: 1, Scale: "quick"}
		if key(named) != key(inline) {
			t.Error("registered scenario and identical inline spec map to different keys")
		}
	}
	other := base
	other.Seed = 4
	if key(base) == key(other) {
		t.Error("seed did not change the key")
	}
	if _, err := JobKey(dist.Job{Experiment: "nope", Seed: 1, Scale: "quick"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := JobKey(dist.Job{Experiment: "servetoy", Seed: 1, Scale: "huge"}); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestSubmitStreamsAndCaches(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{})
	want := refStream(t, "servetoy", 3)

	before := atomic.LoadInt64(&toyCells)
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":3,"scale":"quick"}`)
	if !sr.Created || sr.Cells != toyN {
		t.Fatalf("cold submit: %+v", sr)
	}
	body, hdr := getRecords(t, ts, sr.ID, "")
	if !bytes.Equal(body, want) {
		t.Fatalf("cold stream differs from `meshopt fig` bytes:\ngot:\n%s\nwant:\n%s", body, want)
	}
	if hdr.Get("X-Meshopt-Cache") != "miss" {
		t.Fatalf("cold stream header %q", hdr.Get("X-Meshopt-Cache"))
	}
	if ran := atomic.LoadInt64(&toyCells) - before; ran != toyN {
		t.Fatalf("cold run executed %d cells, want %d", ran, toyN)
	}
	st := getStatus(t, ts, sr.ID)
	if st.State != stateDone || st.CellsDone != toyN || st.Records != toyN || st.CacheHit {
		t.Fatalf("cold status: %+v", st)
	}
	if !strings.Contains(st.Summary, "servetoy: sum=") {
		t.Fatalf("summary missing: %+v", st)
	}

	// Warm path: same submission is a cache hit — no execution, same bytes.
	before = atomic.LoadInt64(&toyCells)
	sr2 := postJob(t, ts, `{"experiment":"servetoy","seed":3}`)
	if sr2.Created || sr2.ID != sr.ID || sr2.State != stateDone {
		t.Fatalf("warm submit: %+v", sr2)
	}
	body2, _ := getRecords(t, ts, sr.ID, "")
	if !bytes.Equal(body2, want) {
		t.Fatal("warm stream differs")
	}
	if ran := atomic.LoadInt64(&toyCells) - before; ran != 0 {
		t.Fatalf("warm hit executed %d cells", ran)
	}
}

func TestFig10ByteIdentityColdAndWarm(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir, Options{})
	want := refStream(t, "fig10", 4)
	sr := postJob(t, ts, `{"experiment":"fig10","seed":4,"scale":"quick"}`)
	cold, _ := getRecords(t, ts, sr.ID, "")
	if !bytes.Equal(cold, want) {
		t.Fatal("cold fig10 stream differs from `meshopt fig 10` bytes")
	}
	sr2 := postJob(t, ts, `{"experiment":"fig10","seed":4,"scale":"quick"}`)
	if sr2.Created {
		t.Fatalf("second fig10 submission recomputed: %+v", sr2)
	}
	warm, _ := getRecords(t, ts, sr2.ID, "")
	if !bytes.Equal(warm, want) {
		t.Fatal("warm fig10 stream differs")
	}
	// A fresh server over the same cache directory serves the entry as
	// a pure cache hit — the cache outlives the process.
	_, ts2 := newTestServer(t, dir, Options{})
	sr3 := postJob(t, ts2, `{"experiment":"fig10","seed":4,"scale":"quick"}`)
	if sr3.Created || sr3.State != stateDone {
		t.Fatalf("restarted server missed the cache: %+v", sr3)
	}
	hit, hdr := getRecords(t, ts2, sr3.ID, "")
	if !bytes.Equal(hit, want) {
		t.Fatal("cache-hit fig10 stream differs")
	}
	if hdr.Get("X-Meshopt-Cache") != "hit" {
		t.Fatalf("cache-hit header %q", hdr.Get("X-Meshopt-Cache"))
	}
	if st := getStatus(t, ts2, sr3.ID); !st.CacheHit {
		t.Fatalf("cache-hit status: %+v", st)
	}
}

func TestConcurrentIdenticalSubmissionsRunOnce(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{})
	atomic.StoreInt64(&toyDelay, 15)
	defer atomic.StoreInt64(&toyDelay, 0)
	want := refStream(t, "servetoy", 7)

	before := atomic.LoadInt64(&toyCells)
	const clients = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
				strings.NewReader(`{"experiment":"servetoy","seed":7,"scale":"quick"}`))
			if err != nil {
				errs[i] = err
				return
			}
			var sr submitResponse
			err = json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			rr, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records")
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i], errs[i] = io.ReadAll(rr.Body)
			rr.Body.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("client %d streamed different bytes:\ngot:\n%s\nwant:\n%s", i, bodies[i], want)
		}
	}
	// Single-flight: the cells ran exactly once no matter how many
	// clients raced the submission (delta covers the reference run too
	// if the cache was cold — it is not: refStream ran before).
	if ran := atomic.LoadInt64(&toyCells) - before; ran != toyN {
		t.Fatalf("%d concurrent submissions executed %d cells, want %d", clients, ran, toyN)
	}
}

func TestRecordsFromOffset(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{})
	want := refStream(t, "servetoy", 9)
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":9}`)
	getRecords(t, ts, sr.ID, "") // drain once so the job is done
	lines := bytes.SplitAfter(want, []byte("\n"))
	for _, from := range []int{0, 1, 5, toyN} {
		got, _ := getRecords(t, ts, sr.ID, fmt.Sprintf("?from=%d", from))
		wantTail := bytes.Join(lines[from:], nil)
		if !bytes.Equal(got, wantTail) {
			t.Fatalf("from=%d: got\n%s\nwant\n%s", from, got, wantTail)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=-1 accepted: %s", resp.Status)
	}
}

func TestCorruptedCacheEntryIsRecomputed(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"bit-flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/3] ^= 0x20
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			// The rewrite keeps the size; make the mtime change explicit
			// rather than relying on clock granularity, so the cache's
			// (size, mtime) fingerprint check is exercised
			// deterministically.
			now := time.Now().Add(2 * time.Second)
			if err := os.Chtimes(path, now, now); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-7); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing-marker", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			i := bytes.LastIndex(data[:len(data)-1], []byte("\n"))
			if err := os.WriteFile(path, data[:i+1], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"removed", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, t.TempDir(), Options{})
			want := refStream(t, "servetoy", 11)
			sr := postJob(t, ts, `{"experiment":"servetoy","seed":11}`)
			if first, _ := getRecords(t, ts, sr.ID, ""); !bytes.Equal(first, want) {
				t.Fatal("cold stream differs")
			}
			tc.corrupt(t, s.Cache().EntryPath(sr.ID))

			before := atomic.LoadInt64(&toyCells)
			sr2 := postJob(t, ts, `{"experiment":"servetoy","seed":11}`)
			if !sr2.Created {
				t.Fatal("corrupted entry was served instead of recomputed")
			}
			got, _ := getRecords(t, ts, sr2.ID, "")
			if !bytes.Equal(got, want) {
				t.Fatalf("recomputed stream differs:\ngot:\n%s\nwant:\n%s", got, want)
			}
			if ran := atomic.LoadInt64(&toyCells) - before; ran != toyN {
				t.Fatalf("recompute executed %d cells, want %d", ran, toyN)
			}
			if st := getStatus(t, ts, sr2.ID); st.CacheHit {
				t.Fatalf("recomputed job claims a cache hit: %+v", st)
			}
		})
	}
}

func TestResumeFromPartCheckpoint(t *testing.T) {
	dir := t.TempDir()
	want := refStream(t, "servetoy", 13)
	lines := bytes.SplitAfter(want, []byte("\n"))
	const keep = 5
	key, err := JobKey(dist.Job{Experiment: "servetoy", Seed: 13, Scale: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	// A killed server leaves <key>.jsonl.part holding a prefix of the
	// stream — plus, here, a torn final line that must be discarded.
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	part := bytes.Join(lines[:keep], nil)
	part = append(part, lines[keep][:len(lines[keep])/2]...)
	if err := os.WriteFile(sink.PartPath(cache.EntryPath(key)), part, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, dir, Options{})
	before := atomic.LoadInt64(&toyCells)
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":13}`)
	if sr.ID != key {
		t.Fatalf("job id %s, want %s", sr.ID, key)
	}
	got, _ := getRecords(t, ts, sr.ID, "")
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed stream differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if ran := atomic.LoadInt64(&toyCells) - before; ran != toyN-keep {
		t.Fatalf("resume executed %d cells, want %d (checkpointed prefix must not recompute)", ran, toyN-keep)
	}
	if st := getStatus(t, ts, sr.ID); st.ResumedCells != keep {
		t.Fatalf("status resumed_cells=%d, want %d", st.ResumedCells, keep)
	}
}

func TestShutdownCheckpointsAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	want := refStream(t, "servetoy", 17)
	atomic.StoreInt64(&toyDelay, 20)
	s, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":17}`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := getStatus(t, ts, sr.ID); st.CellsDone >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	atomic.StoreInt64(&toyDelay, 0)

	// The part checkpoint must hold a valid prefix of complete cells.
	pre := sink.ScanPart(s.cache.EntryPath(sr.ID), false, toyN)
	if pre.Cells < 2 || pre.Cells >= toyN {
		t.Fatalf("part checkpoint after shutdown: %+v", pre)
	}

	// A restarted server over the same cache dir resumes, not recomputes.
	before := atomic.LoadInt64(&toyCells)
	_, ts2 := newTestServer(t, dir, Options{})
	sr2 := postJob(t, ts2, `{"experiment":"servetoy","seed":17}`)
	got, _ := getRecords(t, ts2, sr2.ID, "")
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart stream differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	ran := atomic.LoadInt64(&toyCells) - before
	if ran != int64(toyN-pre.Cells) {
		t.Fatalf("restart executed %d cells, want %d (resume from %d checkpointed)", ran, toyN-pre.Cells, pre.Cells)
	}
	st := getStatus(t, ts2, sr2.ID)
	if st.ResumedCells != pre.Cells {
		t.Fatalf("status resumed_cells=%d, want %d", st.ResumedCells, pre.Cells)
	}
	// A resumed job replays its finished entry through the reduction:
	// the summary must not depend on whether a restart happened.
	if !strings.Contains(st.Summary, "servetoy: sum=") {
		t.Fatalf("resumed job lost its summary: %+v", st)
	}
}

// failSpawner refuses to launch workers, so sharded jobs fail after
// the coordinator's retries.
type failSpawner struct{}

func (failSpawner) Spawn(context.Context, int) (*dist.Worker, error) {
	return nil, fmt.Errorf("no workers available")
}

func TestFailedJobRecordsAreRefused(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{Spawner: failSpawner{}})
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":31,"shards":2}`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := getStatus(t, ts, sr.ID); st.State == stateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not fail")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("failed job records: %s, want 409", resp.Status)
	}
	// Resubmitting replaces the failed job and re-executes.
	sr2 := postJob(t, ts, `{"experiment":"servetoy","seed":31,"shards":2}`)
	if !sr2.Created {
		t.Fatalf("resubmit after failure did not re-execute: %+v", sr2)
	}
}

// TestCellPanicFailsOnlyItsJob: a panicking cell ends its job failed,
// naming the cell, and the server goes on answering and running jobs.
func TestCellPanicFailsOnlyItsJob(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{})
	sr := postJob(t, ts, `{"experiment":"servepanic","seed":1}`)
	deadline := time.Now().Add(30 * time.Second)
	st := getStatus(t, ts, sr.ID)
	for st.State != stateFailed {
		if st.State == stateDone || time.Now().After(deadline) {
			t.Fatalf("job state %q, want failed", st.State)
		}
		time.Sleep(10 * time.Millisecond)
		st = getStatus(t, ts, sr.ID)
	}
	if !strings.Contains(st.Error, "cell 2 panicked: cell exploded") {
		t.Fatalf("job error %q does not name the panicking cell", st.Error)
	}
	ok := postJob(t, ts, `{"experiment":"servetoy","seed":33}`)
	if got, _ := getRecords(t, ts, ok.ID, ""); !bytes.Equal(got, refStream(t, "servetoy", 33)) {
		t.Fatalf("job after the panic streamed %q, want the reference bytes", got)
	}
}

// pipeSpawner serves long-lived dist workers in-process over pipes, so
// sharded jobs run without spawning the test binary.
type pipeSpawner struct{}

func (pipeSpawner) Spawn(ctx context.Context, slot int) (*dist.Worker, error) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := dist.ServeWork(inR, outW, nil, nil, nil)
		if err != nil {
			outW.CloseWithError(err)
		} else {
			outW.Close()
		}
		done <- err
	}()
	var once sync.Once
	kill := func() {
		once.Do(func() {
			inR.CloseWithError(io.ErrClosedPipe)
			outW.CloseWithError(io.ErrClosedPipe)
		})
	}
	return &dist.Worker{In: inW, Out: outR, Kill: kill, Wait: func() error { return <-done }}, nil
}

func TestShardedJobRunsThroughCoordinator(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{Spawner: pipeSpawner{}})
	want := refStream(t, "servetoy", 19)
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":19,"shards":3}`)
	if !sr.Created {
		t.Fatalf("cold sharded submit: %+v", sr)
	}
	got, _ := getRecords(t, ts, sr.ID, "")
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded stream differs from unsharded bytes:\ngot:\n%s\nwant:\n%s", got, want)
	}
	st := getStatus(t, ts, sr.ID)
	if st.State != stateDone || st.CellsDone != toyN {
		t.Fatalf("sharded status: %+v", st)
	}
	if !strings.Contains(st.Summary, "servetoy") {
		t.Fatalf("sharded summary missing: %+v", st)
	}
	// Warm: the sharded run's entry serves unsharded submissions too —
	// the content address ignores the execution plan.
	sr2 := postJob(t, ts, `{"experiment":"servetoy","seed":19}`)
	if sr2.Created || sr2.ID != sr.ID {
		t.Fatalf("unsharded resubmit missed the sharded entry: %+v", sr2)
	}
}

func TestImportRunDirServesAsCacheEntry(t *testing.T) {
	dir := t.TempDir()
	rundir := dir + "/rundir"
	job := dist.Job{Experiment: "servetoy", Seed: 23, Scale: "quick", Shards: 2}
	if _, err := dist.Run(context.Background(), job, rundir, dist.Options{Spawner: pipeSpawner{}}); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, dir+"/cache", Options{})
	key, err := s.Cache().ImportRunDir(rundir)
	if err != nil {
		t.Fatal(err)
	}
	want := refStream(t, "servetoy", 23)
	before := atomic.LoadInt64(&toyCells)
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":23}`)
	if sr.Created || sr.ID != key {
		t.Fatalf("imported rundir not served from cache: %+v (key %s)", sr, key)
	}
	got, _ := getRecords(t, ts, sr.ID, "")
	if !bytes.Equal(got, want) {
		t.Fatal("imported stream differs from unsharded bytes")
	}
	if ran := atomic.LoadInt64(&toyCells) - before; ran != 0 {
		t.Fatalf("imported entry still executed %d cells", ran)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []experimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, e := range list {
		kinds[e.Name] = e.Kind
	}
	if kinds["fig10"] != "figure" || kinds["servetoy"] != "figure" {
		t.Fatalf("registry listing incomplete: %v", kinds)
	}
}

func TestSubmitRejectsUnknownWork(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"experiment":"nosuch","seed":1}`, http.StatusBadRequest},
		{`{"experiment":"servetoy","seed":1,"scale":"huge"}`, http.StatusBadRequest},
		{`{not json`, http.StatusBadRequest},
		// One byte over the body limit, all of it inside a well-formed
		// request: refused for its size, not parsed.
		{`{"experiment":"` + strings.Repeat("x", maxSubmitBytes) + `","seed":1}`, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("submit %.40s: status %s, want %d", tc.body, resp.Status, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job id: %s, want 404", resp.Status)
	}
}

func TestValidatePartPrefixes(t *testing.T) {
	dir := t.TempDir()
	write := func(content string) string {
		path := dir + "/part.jsonl"
		if err := os.WriteFile(sink.PartPath(path), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	line := func(cell int) string {
		return fmt.Sprintf(`{"scenario":"t","series":"cell","cell":%d,"v":1}`+"\n", cell)
	}
	// Single-record: every complete line is a complete cell.
	p := write(line(0) + line(1) + line(2))
	if pre := sink.ScanPart(p, false, 10); pre.Cells != 3 || pre.Records != 3 {
		t.Fatalf("single-record prefix: %+v", pre)
	}
	// Torn tail: the half-written line is dropped.
	p = write(line(0) + line(1) + `{"scenario":"t","ser`)
	if pre := sink.ScanPart(p, false, 10); pre.Cells != 2 {
		t.Fatalf("torn tail: %+v", pre)
	}
	// A final line that parses but lost its newline is still a torn
	// write: counting it would make the kept byte range overrun the
	// file and corrupt the resumed stream.
	full := line(0) + line(1) + line(2)
	p = write(full[:len(full)-1])
	if pre := sink.ScanPart(p, false, 10); pre.Cells != 2 || pre.Bytes != int64(len(line(0)+line(1))) {
		t.Fatalf("newline-less tail: %+v", pre)
	}
	// Multi-record: the final cell is dropped (completeness unknowable).
	p = write(line(0) + line(0) + line(1) + line(1))
	if pre := sink.ScanPart(p, true, 10); pre.Cells != 1 || pre.Records != 2 {
		t.Fatalf("multi-record prefix: %+v", pre)
	}
	// A gap invalidates everything after it.
	p = write(line(0) + line(3))
	if pre := sink.ScanPart(p, false, 10); pre.Cells != 1 {
		t.Fatalf("gapped part: %+v", pre)
	}
	// Does not start at cell 0: nothing to keep.
	p = write(line(2))
	if pre := sink.ScanPart(p, false, 10); pre != (sink.Prefix{}) {
		t.Fatal("prefix not starting at cell 0 accepted")
	}
	// A multi-record stream cannot open with a cell below 0 either.
	p = write(line(-1) + line(0) + line(1))
	if pre := sink.ScanPart(p, true, 10); pre != (sink.Prefix{}) {
		t.Fatalf("prefix opening at cell -1 kept: %+v", pre)
	}
	// Parts never hold markers, blanks or CRs: each ends the prefix.
	for _, damage := range []string{"#done\n", "\n", strings.TrimSuffix(line(2), "\n") + "\r\n"} {
		p = write(line(0) + line(1) + damage + line(2))
		if pre := sink.ScanPart(p, false, 10); pre.Cells != 2 || pre.Bytes != int64(len(line(0)+line(1))) {
			t.Fatalf("part damaged by %q: %+v", damage, pre)
		}
	}
	// More cells than the enumeration: stale, discard.
	p = write(line(0) + line(1) + line(2))
	if pre := sink.ScanPart(p, false, 2); pre != (sink.Prefix{}) {
		t.Fatal("oversized part accepted")
	}
}

// drainLines consumes a streaming response until n lines arrived,
// proving records stream live (before the job completes).
func TestRecordsStreamLiveWhileRunning(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{})
	atomic.StoreInt64(&toyDelay, 25)
	defer atomic.StoreInt64(&toyDelay, 0)
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":29}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	// At least one record arrived; the job cannot be done yet.
	if st := getStatus(t, ts, sr.ID); terminal(st.State) {
		t.Skipf("job finished before the first read; cannot assert liveness (state %s)", st.State)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if got := 1 + bytes.Count(rest, []byte("\n")); got != toyN {
		t.Fatalf("streamed %d records, want %d", got, toyN)
	}
}

// TestShutdownStopsComputation: Shutdown must actually cancel the
// in-process engine — not just refuse sink writes while the sweep burns
// CPU to completion. After Shutdown returns, the cell counter must stay
// flat.
func TestShutdownStopsComputation(t *testing.T) {
	dir := t.TempDir()
	atomic.StoreInt64(&toyDelay, 20)
	defer atomic.StoreInt64(&toyDelay, 0)
	var log bytes.Buffer
	s, err := New(Options{CacheDir: dir, Logger: slog.New(slog.NewTextHandler(&log, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":37}`)
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, sr.ID).CellsDone < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not settle within its deadline: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown took %v", d)
	}
	after := atomic.LoadInt64(&toyCells)
	time.Sleep(100 * time.Millisecond)
	if later := atomic.LoadInt64(&toyCells); later != after {
		t.Fatalf("cells kept executing after Shutdown returned: %d -> %d", after, later)
	}
	if !strings.Contains(log.String(), `msg="shutdown interrupted in-flight jobs" jobs=1 cells_completed=`) {
		t.Fatalf("shutdown log lacks the cell accounting:\n%s", log.String())
	}
}

// TestJobTTLEvictsTerminalJobs: a done job expires out of the job table
// once its TTL passes — but only when its cache entry revalidates — and
// a resubmission of the evicted ID is a pure cache hit.
func TestJobTTLEvictsTerminalJobs(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Options{JobTTL: time.Hour})
	sr := postJob(t, ts, `{"experiment":"servetoy","seed":41}`)
	want, _ := getRecords(t, ts, sr.ID, "")

	// Not yet expired: nothing to evict.
	if n := s.sweepJobs(time.Now()); n != 0 {
		t.Fatalf("sweep before TTL evicted %d jobs", n)
	}
	// Expired with a valid entry: evicted; the ID 404s.
	if n := s.sweepJobs(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("sweep after TTL evicted %d jobs, want 1", n)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job status: %s, want 404", resp.Status)
	}
	// Resubmission: cache hit, no recompute, same bytes.
	before := atomic.LoadInt64(&toyCells)
	sr2 := postJob(t, ts, `{"experiment":"servetoy","seed":41}`)
	if sr2.Created || sr2.State != stateDone || sr2.ID != sr.ID {
		t.Fatalf("resubmit after eviction: %+v", sr2)
	}
	got, _ := getRecords(t, ts, sr2.ID, "")
	if !bytes.Equal(got, want) {
		t.Fatal("post-eviction stream differs")
	}
	if ran := atomic.LoadInt64(&toyCells) - before; ran != 0 {
		t.Fatalf("post-eviction resubmit executed %d cells", ran)
	}

	// A done job whose entry is corrupt must NOT be evicted.
	data, err := os.ReadFile(s.Cache().EntryPath(sr.ID))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(s.Cache().EntryPath(sr.ID), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := s.sweepJobs(time.Now().Add(4 * time.Hour)); n != 0 {
		t.Fatalf("sweep evicted a done job with a corrupt entry (%d)", n)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job with corrupt entry gone from the table: %s", resp.Status)
		}
	}
}

// writeValidEntry plants a hand-built, marker-terminated cache entry.
func writeValidEntry(t *testing.T, c *Cache, key, line string) {
	t.Helper()
	h := sha256.New()
	h.Write([]byte(line))
	h.Write([]byte{'\n'})
	content := line + "\n" + sink.DoneMarker(1, h.Sum(nil)) + "\n"
	if err := os.WriteFile(c.EntryPath(key), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCacheIndexFastPathAndSelfValidation(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "deadbeef"
	line := `{"scenario":"x","series":"cell","cell":0}`
	writeValidEntry(t, c, key, line)

	// First Lookup in a process always rehashes, then seals the index.
	_, records, dataBytes, ok := c.Lookup(key)
	if !ok || records != 1 || dataBytes != int64(len(line)+1) {
		t.Fatalf("lookup: records=%d bytes=%d ok=%v", records, dataBytes, ok)
	}
	idx, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatalf("index.json not persisted: %v", err)
	}
	wantN, wantB, wantSum, wantOK := sink.ValidateLog(c.EntryPath(key))
	if !wantOK {
		t.Fatal("planted entry does not validate")
	}
	for _, frag := range []string{
		fmt.Sprintf(`"records": %d`, wantN),
		fmt.Sprintf(`"length": %d`, wantB),
		fmt.Sprintf(`"sha256": %q`, wantSum),
	} {
		if !strings.Contains(string(idx), frag) {
			t.Fatalf("index.json missing %s:\n%s", frag, idx)
		}
	}

	// Prove the warm path is a stat, not a rehash: corrupt the entry
	// while preserving its (size, mtime) fingerprint. The same-process
	// Lookup serves the stale index entry — and that is fine, because
	// nothing mutates sealed entries in-place in real operation...
	fi, err := os.Stat(c.EntryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(c.EntryPath(key))
	data[len(line)/2] ^= 0x20
	if err := os.WriteFile(c.EntryPath(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(c.EntryPath(key), fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := c.Lookup(key); !ok {
		t.Fatal("fingerprint-preserving corruption changed the fast path (did Lookup rehash?)")
	}
	// ...while Revalidate bypasses the index and catches it, dropping
	// the index entry with it.
	if _, _, _, ok := c.Revalidate(key); ok {
		t.Fatal("Revalidate served a corrupt entry")
	}
	if idx, _ := os.ReadFile(filepath.Join(dir, "index.json")); strings.Contains(string(idx), key) {
		t.Fatalf("invalidated key still indexed:\n%s", idx)
	}

	// A fresh process over the same directory must also catch it: the
	// persisted index is advisory, never a substitute for the first
	// validation.
	writeValidEntry(t, c, key, line)
	c.Lookup(key) // re-seal so the fresh process starts with an index entry
	data, _ = os.ReadFile(c.EntryPath(key))
	fi, _ = os.Stat(c.EntryPath(key))
	data[len(line)/2] ^= 0x20
	os.WriteFile(c.EntryPath(key), data, 0o644)
	os.Chtimes(c.EntryPath(key), fi.ModTime(), fi.ModTime())
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := c2.Lookup(key); ok {
		t.Fatal("fresh cache trusted the persisted index over a full validation")
	}
}

// TestBroadcastRepeatSubmitIsPureCacheHit is the serving-layer
// acceptance case for the dissemination family: a broadcast job's
// stream must match `meshopt fig broadcast` byte for byte, and the
// repeat submission must be a pure cache hit — no cell re-executed,
// served straight from the sealed entry.
func TestBroadcastRepeatSubmitIsPureCacheHit(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir, Options{})
	want := refStream(t, "broadcast", 4)
	sr := postJob(t, ts, `{"experiment":"broadcast","seed":4,"scale":"quick"}`)
	if !sr.Created {
		t.Fatalf("cold submit: %+v", sr)
	}
	cold, _ := getRecords(t, ts, sr.ID, "")
	if !bytes.Equal(cold, want) {
		t.Fatal("cold broadcast stream differs from `meshopt fig broadcast` bytes")
	}
	sr2 := postJob(t, ts, `{"experiment":"broadcast","seed":4}`)
	if sr2.Created || sr2.ID != sr.ID || sr2.State != stateDone {
		t.Fatalf("repeat submit recomputed: %+v", sr2)
	}
	warm, _ := getRecords(t, ts, sr.ID, "")
	if !bytes.Equal(warm, want) {
		t.Fatal("warm broadcast stream differs")
	}
	// A fresh server over the same cache: still a hit, still the bytes.
	_, ts2 := newTestServer(t, dir, Options{})
	sr3 := postJob(t, ts2, `{"experiment":"broadcast","seed":4,"scale":"quick"}`)
	if sr3.Created || sr3.State != stateDone {
		t.Fatalf("restarted server missed the cache: %+v", sr3)
	}
	hit, hdr := getRecords(t, ts2, sr3.ID, "")
	if !bytes.Equal(hit, want) {
		t.Fatal("cache-hit broadcast stream differs")
	}
	if hdr.Get("X-Meshopt-Cache") != "hit" {
		t.Fatalf("cache-hit header %q", hdr.Get("X-Meshopt-Cache"))
	}
}

// TestRecordsSubscriberInRenameWindow pins the hand-over from part file
// to cache entry: run seals the log (renaming the part) before it publishes
// the entry's path, so a subscriber whose first look at a running job
// falls in between finds no file under the published path. It must wait
// for the next publish and stream the entry, not end a complete job's
// stream with an empty 200.
func TestRecordsSubscriberInRenameWindow(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Options{})
	e, _ := exp.Find("servetoy")
	j := newJob("renamewindow", dist.Job{Experiment: "servetoy", Seed: 1}, e, exp.Quick())
	body := []byte("{\"cell\":0}\n{\"cell\":1}\n")
	entry := filepath.Join(t.TempDir(), "entry.jsonl")
	if err := os.WriteFile(entry, body, 0o644); err != nil {
		t.Fatal(err)
	}
	// The job as a subscriber sees it mid-window: running, records
	// published, the part file already renamed away.
	j.state = stateRunning
	j.path = entry + ".part"
	j.bytes = int64(len(body))
	s.mu.Lock()
	s.jobs[j.key] = j
	s.mu.Unlock()

	waiting := j.snapshot().update
	got := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.key + "/records")
		if err != nil {
			got <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- b
	}()
	select {
	case b := <-got:
		t.Fatalf("stream ended inside the rename window with %q", b)
	case <-time.After(100 * time.Millisecond):
	}
	if waiting != j.snapshot().update {
		t.Fatal("test premise: nothing else publishes on this job")
	}
	j.publish(func(j *job) {
		j.state = stateDone
		j.path = entry
	})
	if b := <-got; !bytes.Equal(b, body) {
		t.Fatalf("streamed %q, want %q", b, body)
	}
}
