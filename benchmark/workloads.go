package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dist"
	_ "repro/internal/experiments" // registers fig3..fig14 and netvalid
	"repro/internal/experiments/exp"
	"repro/internal/experiments/runner"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/scenario/sink"
	"repro/internal/serve"
)

// A workload is one named set of inputs. setup builds everything a pass
// needs — generated specs, reference digests, warmed caches — and is
// what setup_s times; the returned instance runs identical passes.
type workload struct {
	name string
	why  string
	// warmup is the number of untimed passes before the timed ones.
	warmup int
	setup  func(b *bench) (*instance, error)
}

type instance struct {
	// pass runs the workload's unit of work once and checks its outputs.
	// A span in ctx makes it a traced pass.
	pass func(ctx context.Context) (passResult, error)
	// verify, when set, runs after each pass outside the timed region
	// and returns further failures (checks too costly to time).
	verify func() int
	close  func()
	// info lines (reference digests, mix hash) are printed so two
	// commits can be compared exactly.
	info []string
	// detail collects workload-specific timings a pass takes of its own
	// phases and operations.
	detail *samples
}

// samples is a concurrency-safe bag of named timing samples.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSamples() *samples { return &samples{m: map[string][]float64{}} }

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.m[name]...)
}

func (s *samples) reset() {
	s.mu.Lock()
	s.m = map[string][]float64{}
	s.mu.Unlock()
}

var workloads = []workload{
	{
		name:   "dcf-suite",
		why:    "saturated-DCF figures on one worker: sim/phy/mac do nearly all the work, sink/dist/serve none, so kernel changes show here at full strength",
		warmup: 1,
		setup:  setupDCFSuite,
	},
	{
		name:   "netvalid-par",
		why:    "the heaviest experiment over a 2-worker pool with 3 uneven cells and core/LP in the loop: the same kernel used in parallel, bound by cell imbalance",
		warmup: 2,
		setup:  setupNetvalidPar,
	},
	{
		name:   "coord-records",
		why:    "sharded run over real worker processes with cheap cells and 10k records, then a resume: sink, merge, hashing, spawn and checkpoint I/O dominate, sim does little",
		warmup: 1,
		setup:  setupCoordRecords,
	},
	{
		name:   "serve-mix",
		why:    "HTTP job service with 2 closed-loop clients mixing small hits, 1 MB hits and cold jobs: reads beside writes on the result cache",
		warmup: 1,
		setup:  setupServeMix,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// streamDigest runs e unsharded on the current worker pool and returns
// the SHA-256 of its JSONL record stream — the bytes `meshopt fig`
// would write.
func streamDigest(ctx context.Context, e exp.Experiment, seed int64, sc exp.Scale) (string, error) {
	h := sha256.New()
	s := sink.NewJSONL(h)
	if _, err := exp.Run(e, seed, sc, exp.Options{Sink: s, Context: ctx}); err != nil {
		return "", err
	}
	if err := s.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// spanned runs fn under a child span of ctx's span (a no-op when ctx is
// untraced) and hands fn a context carrying that child.
func spanned(ctx context.Context, name string, fn func(ctx context.Context) error) error {
	sp := span.FromContext(ctx).Child(name)
	defer sp.End()
	return fn(span.NewContext(ctx, sp))
}

// figJob is one figure experiment at one job seed with its reference.
type figJob struct {
	name string
	e    exp.Experiment
	seed int64
	ref  string
}

func newFigJob(name string, seed int64) (figJob, error) {
	e, ok := exp.Find(name)
	if !ok {
		return figJob{}, fmt.Errorf("experiment %q is not registered", name)
	}
	runner.SetWorkers(1)
	ref, err := streamDigest(context.Background(), e, seed, exp.Quick())
	if err != nil {
		return figJob{}, fmt.Errorf("reference run of %s: %w", name, err)
	}
	return figJob{name: name, e: e, seed: seed, ref: ref}, nil
}

func (j figJob) info() string {
	return fmt.Sprintf("digest %s seed=%d sha256=%s", j.name, j.seed, j.ref)
}

// run executes the job under a span named after it and reports whether
// the stream matched the reference.
func (j figJob) run(ctx context.Context) (ok bool, err error) {
	err = spanned(ctx, "bench."+j.name, func(ctx context.Context) error {
		got, err := streamDigest(ctx, j.e, j.seed, exp.Quick())
		ok = got == j.ref
		return err
	})
	return ok, err
}

// --- dcf-suite ----------------------------------------------------------

// dcfFigures are the saturated-DCF experiments of a dcf-suite pass.
// fig10 and fig13 cost the same at any job seed, so theirs comes from
// the benchmark seed; the others' cost swings with it, so theirs is
// fixed (see gen.go).
var dcfFigures = []struct {
	name   string
	seeded bool
}{
	{"fig3", false}, {"fig10", true}, {"fig11", false}, {"fig13", true}, {"fig14", false},
}

func setupDCFSuite(b *bench) (*instance, error) {
	order := rand.New(rand.NewSource(subSeed(b.seed, "dcf-order"))).Perm(len(dcfFigures))
	inst := &instance{close: func() {}}
	jobs := make([]figJob, 0, len(dcfFigures))
	for _, i := range order {
		f := dcfFigures[i]
		seed := int64(figureJobSeed)
		if f.seeded {
			seed = 1 + subSeed(b.seed, f.name)%1_000_000
		}
		j, err := newFigJob(f.name, seed)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
		inst.info = append(inst.info, j.info())
	}
	inst.pass = func(ctx context.Context) (passResult, error) {
		runner.SetWorkers(1)
		var res passResult
		for _, j := range jobs {
			ok, err := j.run(ctx)
			if err != nil {
				return res, err
			}
			res.count(ok)
		}
		return res, nil
	}
	return inst, nil
}

// --- netvalid-par -------------------------------------------------------

func setupNetvalidPar(b *bench) (*instance, error) {
	j, err := newFigJob("netvalid", figureJobSeed)
	if err != nil {
		return nil, err
	}
	return &instance{
		close: func() {},
		info:  []string{j.info()},
		pass: func(ctx context.Context) (passResult, error) {
			runner.SetWorkers(b.env.Parallel)
			var res passResult
			ok, err := j.run(ctx)
			res.count(ok)
			return res, err
		},
	}, nil
}

// --- coord-records ------------------------------------------------------

const coordShards = 4

// recordsJob is the coord-records job: the generated broadcast spec at
// the benchmark seed.
func recordsJob(seed, jobSeed int64, shards int) dist.Job {
	return dist.Job{
		Experiment: fmt.Sprintf("bench-records-%d", seed),
		Spec:       recordsSpec(seed),
		Seed:       jobSeed,
		Scale:      "quick",
		Shards:     shards,
	}
}

// recordsReference runs the job unsharded on one worker and returns its
// stream digest.
func recordsReference(job dist.Job) (string, error) {
	e, sc, err := job.Resolve()
	if err != nil {
		return "", err
	}
	runner.SetWorkers(1)
	return streamDigest(context.Background(), e, job.Seed, sc)
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// workerSpawner starts `meshopt work` subprocesses the way
// dist.ExecSpawner does, and additionally keeps the largest resident
// set any reaped worker reached: RUSAGE_CHILDREN cannot give that,
// because its maximum also covers the `go build` that made the binary.
// Each worker is held to one thread, so slots — not slots × GOMAXPROCS
// — is the load.
type workerSpawner struct {
	bin      string
	maxRSSKB atomic.Int64
}

func (s *workerSpawner) Spawn(ctx context.Context, slot int) (*dist.Worker, error) {
	cmd := exec.CommandContext(ctx, s.bin, "work")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &dist.Worker{
		In:   stdin,
		Out:  stdout,
		Kill: func() { _ = cmd.Process.Kill() }, // ErrProcessDone after the reap is fine
		Wait: func() error {
			err := cmd.Wait()
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				for {
					old := s.maxRSSKB.Load()
					if ru.Maxrss <= old || s.maxRSSKB.CompareAndSwap(old, ru.Maxrss) {
						break
					}
				}
			}
			return err
		},
	}, nil
}

func distOptions(b *bench) dist.Options {
	return dist.Options{Slots: b.env.Parallel, Spawner: b.workers, Logger: obs.Discard()}
}

// coordOutcome is what one coord-records pass produced: the two
// dist.Run reports, their wall times, and whether merged.jsonl matched
// the reference after each.
type coordOutcome struct {
	fresh, resume   *dist.Report
	freshS, resumeS float64
	freshOK, resOK  bool
}

func (o coordOutcome) dispatches() (n int) {
	for _, a := range o.fresh.Attempts {
		n += a
	}
	return n
}

func (o coordOutcome) steals() (n int) {
	for _, s := range o.fresh.Steals {
		n += s
	}
	return n
}

func (o coordOutcome) retries() int { return o.dispatches() - len(o.fresh.Ran) - o.steals() }

// coordPass is one fresh dist.Run into dir followed by a resume after
// two shard checkpoints and the merged output are deleted.
func coordPass(ctx context.Context, b *bench, job dist.Job, ref, dir string) (coordOutcome, error) {
	var out coordOutcome
	merged := filepath.Join(dir, "merged.jsonl")
	o := distOptions(b)
	err := spanned(ctx, "bench.dist.fresh", func(ctx context.Context) error {
		t0 := time.Now()
		rep, err := dist.Run(ctx, job, dir, o)
		out.fresh, out.freshS = rep, time.Since(t0).Seconds()
		return err
	})
	if err != nil {
		return out, fmt.Errorf("dist.Run: %w", err)
	}
	got, err := fileDigest(merged)
	if err != nil {
		return out, err
	}
	out.freshOK = got == ref
	for _, name := range []string{"shard_0.jsonl", "shard_2.jsonl", "merged.jsonl"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return out, err
		}
	}
	err = spanned(ctx, "bench.dist.resume", func(ctx context.Context) error {
		t0 := time.Now()
		rep, err := dist.Run(ctx, job, dir, o)
		out.resume, out.resumeS = rep, time.Since(t0).Seconds()
		return err
	})
	if err != nil {
		return out, fmt.Errorf("dist.Run (resume): %w", err)
	}
	if got, err = fileDigest(merged); err != nil {
		return out, err
	}
	out.resOK = got == ref
	return out, nil
}

func setupCoordRecords(b *bench) (*instance, error) {
	if err := b.buildMeshopt(); err != nil {
		return nil, err
	}
	job := recordsJob(b.seed, b.seed, coordShards)
	ref, err := recordsReference(job)
	if err != nil {
		return nil, err
	}
	inst := &instance{
		close:  func() {},
		info:   []string{fmt.Sprintf("digest %s seed=%d sha256=%s", job.Experiment, job.Seed, ref)},
		detail: newSamples(),
	}
	inst.pass = func(ctx context.Context) (passResult, error) {
		dir, err := os.MkdirTemp(b.tmp, "rundir-")
		if err != nil {
			return passResult{}, err
		}
		defer os.RemoveAll(dir)
		out, err := coordPass(ctx, b, job, ref, dir)
		if err != nil {
			return passResult{}, err
		}
		inst.detail.add("fresh_s", out.freshS)
		inst.detail.add("resume_s", out.resumeS)
		// A healthy pass is 4 dispatches, no retry, no steal, then 2
		// checkpoints reused; anything else is a failed operation even
		// when the bytes came out right.
		var res passResult
		res.count(out.freshOK && out.dispatches() == coordShards)
		res.count(out.resOK && len(out.resume.Reused) == coordShards-2)
		return res, nil
	}
	return inst, nil
}

// --- serve-mix ----------------------------------------------------------

const (
	serveBatchOps   = 100
	serveSmallJobs  = 8 // pre-warmed fig13 entries, ≈ 0.7 KB each
	serveLargeJobs  = 2 // pre-warmed records-spec entries, ≈ 1 MB each
	coldVerifyEvery = 8 // every 8th cold op is re-run directly and compared
)

// serveShare is the op mix in percent: hit-small, hit-large, cold.
var serveShare = [numOpClasses]int{60, 25, 15}

// serveJob is one job the mix submits: the POST body, the id the server
// gave it and the reference digest of its record stream.
type serveJob struct {
	body []byte
	id   string
	ref  string
}

type serveInst struct {
	b      *bench
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	jobs   [numOpClasses][]serveJob // pre-warmed hits; cold is empty
	fig13  exp.Experiment
	// coldBase+ordinal is a cold op's job seed: a seed no earlier op used.
	coldBase int64
	mixer    *mixer
	detail   *samples

	mu      sync.Mutex
	pending []coldCheck  // cold ops awaiting their direct re-run
	dupPOST atomic.Int64 // duplicate cold POSTs sent
	dupCoal atomic.Int64 // … that coalesced (created=false)
}

type coldCheck struct {
	seed   int64
	digest string
}

type submitReply struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Created bool   `json:"created"`
}

func (s *serveInst) submit(body []byte) (submitReply, error) {
	var r submitReply
	resp, err := s.client.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return r, fmt.Errorf("POST /v1/jobs: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&r)
	return r, err
}

// records streams a job's records to the last byte and returns their
// digest and length.
func (s *serveInst) records(id string) (string, int64, error) {
	resp, err := s.client.Get(s.ts.URL + "/v1/jobs/" + id + "/records")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", 0, fmt.Errorf("GET records: %s", resp.Status)
	}
	h := sha256.New()
	n, err := io.Copy(h, resp.Body)
	return hex.EncodeToString(h.Sum(nil)), n, err
}

func fig13Body(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"experiment":"fig13","seed":%d,"scale":"quick"}`, seed))
}

// op executes one operation and reports whether it succeeded; its
// submit→last-byte latency goes to detail under the class name.
func (s *serveInst) op(ctx context.Context, op mixOp) bool {
	sp := span.FromContext(ctx).Child("bench.serve." + opClassNames[op.class])
	defer sp.End()
	t0 := time.Now()
	ok := false
	switch op.class {
	case opHitSmall, opHitLarge:
		j := s.jobs[op.class][op.job]
		r, err := s.submit(j.body)
		tSubmit := time.Since(t0)
		if err != nil || r.ID != j.id || r.Created {
			break
		}
		got, _, err := s.records(j.id)
		ok = err == nil && got == j.ref
		if op.class == opHitLarge {
			s.detail.add("submit-large_ms", tSubmit.Seconds()*1e3)
			s.detail.add("records-large_ms", (time.Since(t0)-tSubmit).Seconds()*1e3)
		}
	case opCold:
		seed := s.coldBase + int64(op.job)
		body := fig13Body(seed)
		r, err := s.submit(body)
		if err != nil || !r.Created {
			break
		}
		dup, err := s.submit(body)
		if err != nil || dup.ID != r.ID {
			break
		}
		s.dupPOST.Add(1)
		if !dup.Created {
			s.dupCoal.Add(1)
		}
		got, n, err := s.records(r.ID)
		ok = err == nil && n > 0 && !dup.Created
		if ok && op.job%coldVerifyEvery == 0 {
			s.mu.Lock()
			s.pending = append(s.pending, coldCheck{seed: seed, digest: got})
			s.mu.Unlock()
		}
	}
	s.detail.add(opClassNames[op.class]+"_ms", time.Since(t0).Seconds()*1e3)
	return ok
}

// batch runs ops over the closed-loop clients: each client takes the
// next op only when its previous one has completed.
func (s *serveInst) batch(ctx context.Context, ops []mixOp) passResult {
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.b.env.Parallel; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				if !s.op(ctx, ops[i]) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return passResult{attempted: len(ops), failed: int(failed.Load())}
}

// verifyCold re-runs the sampled cold jobs directly and compares.
func (s *serveInst) verifyCold() (failed int) {
	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	runner.SetWorkers(1)
	for _, c := range pending {
		want, err := streamDigest(context.Background(), s.fig13, c.seed, exp.Quick())
		if err != nil || want != c.digest {
			failed++
		}
	}
	return failed
}

func (s *serveInst) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) // no job is in flight after a batch; the error would only say so
	os.RemoveAll(s.srv.Cache().Dir())
}

// warm submits a job, streams it to the end and checks it against its
// direct reference run.
func (s *serveInst) warm(body []byte, ref string) (serveJob, error) {
	r, err := s.submit(body)
	if err != nil {
		return serveJob{}, err
	}
	got, _, err := s.records(r.ID)
	if err != nil {
		return serveJob{}, err
	}
	if got != ref {
		return serveJob{}, fmt.Errorf("pre-warming job %s: served stream differs from the direct run", r.ID[:12])
	}
	return serveJob{body: body, id: r.ID, ref: ref}, nil
}

func newServeInst(b *bench) (*serveInst, error) {
	dir, err := os.MkdirTemp(b.tmp, "cache-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{CacheDir: dir, MaxJobs: b.env.Parallel, Logger: obs.Discard()})
	if err != nil {
		return nil, err
	}
	fig13, ok := exp.Find("fig13")
	if !ok {
		return nil, fmt.Errorf("experiment fig13 is not registered")
	}
	s := &serveInst{
		b:   b,
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: b.env.Parallel,
		}},
		fig13:    fig13,
		coldBase: 2_000_000 + subSeed(b.seed, "serve-cold")%1_000_000*10_000,
		mixer:    serveMixer(b.seed),
		detail:   newSamples(),
	}
	// One worker per job: MaxJobs jobs at once is then MaxJobs threads.
	runner.SetWorkers(1)
	smallBase := 1_000_000 + subSeed(b.seed, "serve-small")%1_000_000
	for i := int64(0); i < serveSmallJobs; i++ {
		ref, err := streamDigest(context.Background(), fig13, smallBase+i, exp.Quick())
		if err != nil {
			return s, err
		}
		j, err := s.warm(fig13Body(smallBase+i), ref)
		if err != nil {
			return s, err
		}
		s.jobs[opHitSmall] = append(s.jobs[opHitSmall], j)
	}
	for i := int64(0); i < serveLargeJobs; i++ {
		job := recordsJob(b.seed, b.seed+i, 1)
		ref, err := recordsReference(job)
		if err != nil {
			return s, err
		}
		body, err := json.Marshal(map[string]any{"spec": job.Spec, "seed": job.Seed, "scale": job.Scale})
		if err != nil {
			return s, err
		}
		j, err := s.warm(body, ref)
		if err != nil {
			return s, err
		}
		s.jobs[opHitLarge] = append(s.jobs[opHitLarge], j)
	}
	return s, nil
}

func setupServeMix(b *bench) (*instance, error) {
	s, err := newServeInst(b)
	if err != nil {
		if s != nil {
			s.close()
		}
		return nil, err
	}
	inst := &instance{
		close:  s.close,
		verify: s.verifyCold,
		detail: s.detail,
		info:   []string{"mix " + mixHash(serveMixer(b.seed), 4)},
		pass: func(ctx context.Context) (passResult, error) {
			return s.batch(ctx, s.mixer.batch()), nil
		},
	}
	for c, jobs := range s.jobs {
		for _, j := range jobs {
			inst.info = append(inst.info, fmt.Sprintf("digest %s job=%s sha256=%s", opClassNames[c], j.id[:12], j.ref))
		}
	}
	return inst, nil
}
