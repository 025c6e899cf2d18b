// Package serve is the experiment service: an HTTP control plane over
// the experiment engine with a content-addressed result cache, live
// NDJSON record streaming, and single-flight request coalescing.
//
// The engine's determinism contract — a job's record stream is a pure
// function of (experiment, seed, scale), bit-identical for any worker
// count, shard split or resume point — is what makes a serving layer
// sound. A job's output is addressed by the SHA-256 of its canonical
// form, so caching is not best-effort memoization but exact: a cache
// hit streams the same bytes a fresh run would produce, coalesced
// submissions can all attach to one execution because every client
// would receive identical bytes anyway, and a restart resumes from a
// checkpointed prefix because the recomputed suffix is guaranteed to
// continue it bit-for-bit.
//
// API surface (all JSON unless noted):
//
//	POST /v1/jobs                submit {experiment|spec, seed, scale, shards};
//	                             coalesces onto a running/cached job by content hash
//	GET  /v1/jobs/{id}           status: state, cells done (frontier), records, cache/resume info
//	GET  /v1/jobs/{id}/records   NDJSON record stream, live as cells complete;
//	                             ?from=N resumes at cell N
//	GET  /v1/experiments         the experiment + scenario registry
//
// Jobs with shards > 1 are handed to the internal/dist coordinator
// (shard-checkpointed in the cache's runs/ directory); everything else
// runs on the in-process engine. Admission is a bounded set of
// concurrently executing jobs with a FIFO queue behind it.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/scenario/sink"
)

// Options configures a Server.
type Options struct {
	// CacheDir is the content-addressed result store (required).
	CacheDir string
	// MaxJobs bounds concurrently executing jobs; further submissions
	// queue FIFO. Default 2.
	MaxJobs int
	// Slots is the worker-slot count for sharded (shards > 1) jobs; 0
	// uses the coordinator default.
	Slots int
	// Spawner launches workers for sharded jobs; nil spawns local
	// `meshopt work` subprocesses of this binary.
	Spawner dist.Spawner
	// JobTTL bounds how long a terminal job stays in the in-memory job
	// table after it settles. A done job is evicted only once its cache
	// entry revalidates — eviction must never cost a recomputation; a
	// resubmission of an evicted job is a pure cache hit under the same
	// ID. Failed jobs are evicted unconditionally (they hold no result
	// state; resubmitting one re-executes either way). 0 disables GC:
	// the table grows with the number of distinct jobs ever submitted.
	JobTTL time.Duration
	// CacheMaxBytes bounds the summed size of sealed cache entries; the
	// janitor evicts least-recently-validated entries past the quota,
	// revalidating each candidate first and never touching entries whose
	// key is live in the job table. 0 disables the quota.
	CacheMaxBytes int64
	// Logger receives structured server events (job lifecycle, sweeps,
	// evictions), with job/state/cell fields. Nil discards.
	Logger *slog.Logger
}

// Server is the experiment service. Create with New, mount Handler on
// any http.Server, stop with Shutdown.
type Server struct {
	o      Options
	cache  *Cache
	mux    *http.ServeMux
	ctx    context.Context // canceled at Shutdown; bounds coordinator runs
	cancel context.CancelFunc
	closed atomic.Bool

	// trace is the server-wide span recorder: every job's execution
	// timeline roots here and GET /v1/jobs/{id}/trace exports the job's
	// subtree. Spans of swept jobs are dropped with them, so the
	// recorder's footprint tracks the job table's.
	trace *span.Recorder

	start time.Time

	mu      sync.Mutex // guards jobs/queue/running; never taken inside a job's lock
	jobs    map[string]*job
	queue   []*job
	running int
	wg      sync.WaitGroup // running executions
}

// New creates a server over the given cache directory.
func New(o Options) (*Server, error) {
	if o.MaxJobs <= 0 {
		o.MaxJobs = 2
	}
	if o.Logger == nil {
		o.Logger = obs.Discard()
	}
	cache, err := NewCache(o.CacheDir)
	if err != nil {
		return nil, err
	}
	cache.SetLogger(o.Logger)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		o:      o,
		cache:  cache,
		mux:    http.NewServeMux(),
		ctx:    ctx,
		cancel: cancel,
		trace:  span.NewRecorder(),
		start:  time.Now(),
		jobs:   map[string]*job{},
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/records", s.handleRecords)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	obs.Mount(s.mux, obs.Default)
	if o.JobTTL > 0 || o.CacheMaxBytes > 0 {
		go s.janitor(o.JobTTL)
	}
	return s, nil
}

// janitor periodically sweeps expired terminal jobs out of the job
// table and enforces the cache byte quota until the server shuts down.
func (s *Server) janitor(ttl time.Duration) {
	period := ttl / 4
	if period <= 0 {
		period = 200 * time.Millisecond // quota-only janitor
	}
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-t.C:
			if ttl > 0 {
				s.sweepJobs(now)
			}
			s.enforceQuota()
		}
	}
}

// enforceQuota brings the cache under CacheMaxBytes, pinning every key
// present in the job table: a resident done job's entry backs its live
// record stream, and evicting it would turn a warm ID into a broken
// stream. Unpinned entries (jobs GC'd by TTL, or imported runs never
// submitted this process) are fair game, least recently validated
// first.
func (s *Server) enforceQuota() {
	quota := s.o.CacheMaxBytes
	if quota <= 0 {
		return
	}
	s.mu.Lock()
	pinned := make(map[string]bool, len(s.jobs))
	for key := range s.jobs {
		pinned[key] = true
	}
	s.mu.Unlock()
	// Opened speculatively and dropped when nothing was evicted: the
	// janitor ticks frequently and a span per no-op tick would grow the
	// recorder forever.
	sp := s.trace.Root("cache.evict")
	n, freed := s.cache.EvictOver(quota, pinned)
	sp.End()
	if n == 0 {
		s.trace.Drop(sp)
		return
	}
	sp.SetAttr("evicted", strconv.Itoa(n))
	s.o.Logger.Info("cache quota enforced", "evicted", n, "freed_bytes", freed, "quota_bytes", quota)
}

// sweepJobs evicts jobs that have been terminal for at least JobTTL,
// returning how many were removed. Done jobs are evicted only when
// their cache entry revalidates — the entry is what makes eviction
// free (a resubmission hits the cache); an entry that has gone missing
// or corrupt keeps the job resident rather than silently turning a
// warm ID into a 404-plus-recompute. The revalidation (a full rehash)
// runs with the server lock released.
func (s *Server) sweepJobs(now time.Time) int {
	ttl := s.o.JobTTL
	s.mu.Lock()
	var expired []*job
	for _, j := range s.jobs {
		v := j.snapshot()
		if terminal(v.state) && !v.finished.IsZero() && now.Sub(v.finished) >= ttl {
			expired = append(expired, j)
		}
	}
	s.mu.Unlock()

	evicted := 0
	for _, j := range expired {
		ok := true
		var vsp *span.Span
		if j.snapshot().state == stateDone {
			// Revalidate, not Lookup: eviction relies on the entry being
			// genuinely servable, so the index fast path is not enough —
			// a stale fingerprint match must not free a job whose entry
			// rotted on disk. An invalid entry keeps the job: eviction
			// would cost a recompute.
			vsp = j.span.Child("cache.validate")
			_, _, _, ok = s.cache.Revalidate(j.key)
			vsp.End()
		}
		s.mu.Lock()
		// Re-check under the lock: another sweep may have evicted the job,
		// or a resubmission replaced it, in the meantime. Either dropped
		// its trace under this lock, so the validation span recorded
		// since would be left without a parent.
		switch cur := s.jobs[j.key]; {
		case cur != j:
			s.trace.Drop(vsp)
		case ok && terminal(cur.snapshot().state):
			delete(s.jobs, j.key)
			s.trace.Drop(j.span)
			evicted++
		}
		s.mu.Unlock()
	}
	if evicted > 0 {
		metJobsSwept.Add(float64(evicted))
		s.o.Logger.Info("expired jobs swept from table", "evicted", evicted)
	}
	return evicted
}

// Handler returns the HTTP handler serving the v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the underlying content-addressed store (startup imports
// of coordinator run directories go through it).
func (s *Server) Cache() *Cache { return s.cache }

// Shutdown stops the server gracefully: no new submissions or
// executions, queued jobs failed, streaming clients woken, in-flight
// executions cancelled at their next cell boundary and checkpointed
// (each part file a valid resumable prefix). It waits for executions
// to settle until ctx expires — cancelling the server context stops
// both the in-process engine (exp.Options.Context) and coordinator
// runs (dist.Run kills its workers), so settlement is bounded by one
// cell's runtime, not the remaining sweep. On return it reports, per
// interrupted job, how many cells completed (checkpointed, never
// recomputed) and how many were abandoned to the next resume.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	s.cancel()
	s.mu.Lock()
	queued := s.queue
	s.queue = nil
	var inflight []*job
	for _, j := range s.jobs {
		if j.snapshot().state == stateRunning {
			inflight = append(inflight, j)
		}
	}
	s.mu.Unlock()
	for _, j := range queued {
		j.publish(func(j *job) {
			j.state = stateFailed
			j.errMsg = errShutdown.Error()
		})
	}
	settled := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(settled)
	}()
	err := error(nil)
	select {
	case <-settled:
	case <-ctx.Done():
		err = ctx.Err()
	}
	completed, abandoned := 0, 0
	for _, j := range inflight {
		v := j.snapshot()
		completed += v.cellsDone
		abandoned += j.cells - v.cellsDone
	}
	if len(inflight) > 0 {
		s.o.Logger.Info("shutdown interrupted in-flight jobs",
			"jobs", len(inflight), "cells_completed", completed, "cells_abandoned", abandoned)
	}
	// Lookups refresh eviction timestamps in memory only; a clean stop
	// is where they reach index.json.
	s.cache.Flush()
	return err
}

// admit starts queued jobs while execution slots are free. Caller holds
// s.mu.
func (s *Server) admit() {
	for s.running < s.o.MaxJobs && len(s.queue) > 0 && !s.closed.Load() {
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.running++
		s.wg.Add(1)
		go s.execute(j)
	}
	metJobsRunning.Set(float64(s.running))
	metQueueDepth.Set(float64(len(s.queue)))
}

// execute runs one job to a terminal state and frees its slot.
func (s *Server) execute(j *job) {
	defer func() {
		s.mu.Lock()
		s.running--
		s.admit()
		s.mu.Unlock()
		s.wg.Done()
	}()
	j.queuedSpan.End()
	metQueueWait.Observe(time.Since(j.queuedAt).Seconds())
	j.publish(func(j *job) { j.state = stateRunning })
	s.o.Logger.Info("job running",
		"job", j.key[:12], "experiment", j.req.Experiment, "seed", j.req.Seed,
		"scale", j.req.Scale, "shards", j.req.Shards, "cells", j.cells)
	runSpan := j.span.Child("run")
	ctx := span.NewContext(s.ctx, runSpan)
	err := s.run(ctx, j)
	runSpan.End()
	defer j.span.End()
	if err != nil {
		metJobsFailed.Inc()
		j.span.SetAttr("state", stateFailed)
		s.o.Logger.Warn("job failed", "job", j.key[:12], "err", err)
		j.publish(func(j *job) {
			j.state = stateFailed
			j.errMsg = err.Error()
		})
		return
	}
	j.span.SetAttr("state", stateDone)
	metJobsDone.Inc()
	s.o.Logger.Info("job done", "job", j.key[:12], "records", j.snapshot().records)
	// A fresh entry just landed; trim the cache if it pushed past quota.
	s.enforceQuota()
}

// submitResponse answers a submission: Created reports whether this
// submission started (or queued) a new execution — false means the
// client attached to a cache entry or an already-in-flight identical
// job.
type submitResponse struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Cells   int    `json:"cells"`
	Created bool   `json:"created"`
}

// submit coalesces a request onto its job. The job table is consulted
// first (attach): an in-flight job is attached to at once, a resident
// done job after its cache entry revalidates — so a warm submission
// costs the key derivation, a stat and two short critical sections,
// whatever the entry's size or the cache's and the table's population.
// Only when the table holds no usable job is one built (create): born
// done from a valid cache entry, or queued for execution.
func (s *Server) submit(req dist.Job) (*job, bool, error) {
	metSubmissions.Inc()
	key, err := JobKey(req)
	if err != nil {
		return nil, false, err
	}
	for {
		j, stale, err := s.attach(key)
		if j != nil || err != nil {
			return j, false, err
		}
		j, created, err := s.create(key, req, stale)
		if j != nil || err != nil {
			return j, created, err
		}
		// A concurrent submission put its job in the table while this one
		// was being built: go back and attach to that one.
	}
}

// attach answers a submission from the job table. It returns the job to
// coalesce onto; or, when the table's job cannot serve the submission —
// failed, or done with an entry that no longer validates — that job as
// stale, for create to replace. Both nil: the table has no job for key.
func (s *Server) attach(key string) (j, stale *job, err error) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil, nil, errShutdown
	}
	j = s.jobs[key]
	if j == nil {
		s.mu.Unlock()
		return nil, nil, nil
	}
	st := j.snapshot().state
	if !terminal(st) {
		s.coalesceLocked(j) // single-flight: no disk I/O for an in-flight job
		s.mu.Unlock()
		return j, nil, nil
	}
	s.mu.Unlock()
	if st == stateFailed {
		return nil, j, nil
	}
	// The entry revalidates on every attach: a corrupted or evicted file
	// must trigger recomputation, never be served. A first validation is
	// a full rehash of the file, so it runs with the lock released — warm
	// submissions of large entries must not convoy the whole API behind
	// disk I/O.
	if _, _, _, ok := s.cache.Lookup(key); !ok {
		return nil, j, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, nil, errShutdown
	}
	if s.jobs[key] != j {
		// Swept by the TTL janitor (or replaced) while the lock was
		// released: a job out of the table is never handed out.
		return nil, nil, nil
	}
	s.coalesceLocked(j)
	return j, nil, nil
}

// coalesceLocked counts one more submission attaching to j and marks it
// in j's trace: one "coalesced" span per job, opened by the first attach
// and carrying the running count, so a hot key does not grow the
// recorder by a span per hit. Caller holds s.mu.
func (s *Server) coalesceLocked(j *job) {
	metCoalesced.Inc()
	j.coalesced++
	if j.coalescedSpan == nil {
		j.coalescedSpan = j.span.Child("coalesced")
		j.coalescedSpan.End()
	}
	j.coalescedSpan.SetAttr("count", strconv.Itoa(j.coalesced))
}

// create builds the job for key and puts it in the table, replacing
// stale (the unusable job attach found there, if any). It returns no
// job when a different one got there first; submit then attaches to
// that. Everything costly — the spec parse, the entry validation, a
// hit's reduction replay, the cell enumeration of a large sweep — runs
// before the lock is taken.
func (s *Server) create(key string, req dist.Job, stale *job) (*job, bool, error) {
	e, sc, err := req.Resolve()
	if err != nil {
		return nil, false, err
	}
	// The root span is opened speculatively and dropped again if the job
	// never enters the table: the cache lookup (and a hit's reduction
	// replay) happen before the job exists, so they could not otherwise
	// nest under it.
	jobSpan := s.trace.Root("job",
		span.Str("experiment", e.Name()), span.I64("seed", req.Seed),
		span.Str("scale", req.Scale), span.Int("shards", req.Shards))
	lookupSpan := jobSpan.Child("cache.lookup")
	path, records, dataBytes, entryOK := s.cache.Lookup(key)
	lookupSpan.End()
	// A cache-hit-born job never runs a reduction, so its summary is
	// recomputed by replaying the entry's records through Reduce —
	// GET /v1/jobs/{id} then shows the same summary a computed job
	// would. The job stays resident with that summary, so the replay
	// happens once per residency, not once per hit.
	summary := ""
	if entryOK {
		jobSpan.SetAttr("cache", "hit")
		reduceSpan := jobSpan.Child("reduce")
		if res, rerr := reduceEntry(e, path); rerr == nil && res != nil {
			var b strings.Builder
			res.Print(&b)
			summary = b.String()
		}
		reduceSpan.End()
	}
	j := newJob(key, req, e, sc)
	j.span = jobSpan

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		s.trace.Drop(jobSpan)
		return nil, false, errShutdown
	}
	if cur := s.jobs[key]; cur != nil {
		if cur != stale {
			s.trace.Drop(jobSpan)
			return nil, false, nil
		}
		s.trace.Drop(cur.span) // the replaced job's trace retires with it
	}
	if entryOK {
		j.state = stateDone
		j.finished = time.Now()
		j.cacheHit = true
		j.cellsDone = j.cells
		j.records = records
		j.bytes = dataBytes
		j.path = path
		j.summary = summary
		j.span.End()
		s.jobs[key] = j // fully initialized before it becomes reachable
		metCoalesced.Inc()
		s.o.Logger.Info("job served from cache", "job", key[:12], "records", records)
		return j, false, nil
	}
	j.span.SetAttr("cache", "miss")
	j.queuedSpan = j.span.Child("queued")
	j.queuedAt = time.Now()
	s.jobs[key] = j
	s.queue = append(s.queue, j)
	s.admit()
	return j, true, nil
}

// maxSubmitBytes bounds a POST /v1/jobs body. Inline specs are a few KB;
// nothing legitimate comes near 1 MiB.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req dist.Job
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Scale == "" {
		req.Scale = "quick"
	}
	if req.Shards < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("shards must be >= 0"))
		return
	}
	if req.Shards == 0 {
		req.Shards = 1
	}
	j, created, err := s.submit(req)
	if err != nil {
		status := http.StatusBadRequest
		if err == errShutdown {
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err)
		return
	}
	writeJSON(w, submitResponse{ID: j.key, State: j.snapshot().state, Cells: j.cells, Created: created})
}

// jobStatus is the GET /v1/jobs/{id} body.
type jobStatus struct {
	ID           string `json:"id"`
	Experiment   string `json:"experiment"`
	Seed         int64  `json:"seed"`
	Scale        string `json:"scale"`
	Shards       int    `json:"shards"`
	State        string `json:"state"`
	Cells        int    `json:"cells"`
	CellsDone    int    `json:"cells_done"`
	Records      int    `json:"records"`
	Bytes        int64  `json:"bytes"`
	CacheHit     bool   `json:"cache_hit"`
	ResumedCells int    `json:"resumed_cells,omitempty"`
	ReusedShards int    `json:"reused_shards,omitempty"`
	Error        string `json:"error,omitempty"`
	Summary      string `json:"summary,omitempty"`
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	v := j.snapshot()
	writeJSON(w, jobStatus{
		ID:           j.key,
		Experiment:   j.e.Name(),
		Seed:         j.req.Seed,
		Scale:        j.req.Scale,
		Shards:       j.req.Shards,
		State:        v.state,
		Cells:        j.cells,
		CellsDone:    v.cellsDone,
		Records:      v.records,
		Bytes:        v.bytes,
		CacheHit:     v.cacheHit,
		ResumedCells: v.resumedCells,
		ReusedShards: v.reusedShards,
		Error:        v.errMsg,
		Summary:      v.summary,
	})
}

// handleTrace exports a job's span subtree from the server-wide
// recorder: Chrome trace-event JSON by default (load it in Perfetto or
// chrome://tracing), the compact JSONL span log with ?format=jsonl. A
// still-running job exports honest partial intervals — open spans carry
// their duration so far — so the timeline is inspectable mid-run.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	spans := span.Subtree(s.trace.Snapshot(), j.span.ID())
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		span.WriteChrome(w, spans)
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		span.WriteJSONL(w, spans)
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad format=%q (want chrome or jsonl)", r.URL.Query().Get("format")))
	}
}

// handleRecords streams a job's records as NDJSON, live: published
// bytes are copied as they appear and the handler waits on the job's
// update channel between chunks, so clients receive cells as the
// engine (or the coordinator's merge frontier) completes them. The
// bytes are exactly what `meshopt fig` would write to
// stdout for the same job — the completion marker lives beyond the
// published byte range and is never sent. ?from=N skips records of
// cells below N (a client-side resume offset).
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad from=%q (want a non-negative cell index)", q))
			return
		}
		from = n
	}
	v := j.snapshot()
	if v.state == stateFailed {
		// A failed job's stream is incomplete by definition; refuse it
		// up front rather than serving a prefix that looks whole.
		httpError(w, http.StatusConflict, fmt.Errorf("job failed: %s", v.errMsg))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	cacheState := "miss"
	if v.cacheHit {
		cacheState = "hit"
	}
	w.Header().Set("X-Meshopt-Cache", cacheState)
	flusher, _ := w.(http.Flusher)
	metSubscribers.Inc()
	defer metSubscribers.Dec()

	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	var off int64
	skipping := from > 0
	for {
		v := j.snapshot()
		if f == nil && v.path != "" {
			var err error
			// Held open across the part→entry rename: the fd follows
			// the inode, and published offsets are stable across it.
			if f, err = os.Open(v.path); err != nil {
				if terminal(v.state) {
					return
				}
				// The part file is renamed to its cache entry a moment
				// before the job publishes the entry's path; a subscriber
				// that opens in between waits for that publish instead of
				// ending a complete job's stream empty.
				f = nil
			}
		}
		if f != nil && off < v.bytes {
			n, err := copyRecords(w, f, off, v.bytes, from, &skipping)
			if err != nil {
				return // client gone
			}
			off = n
			if flusher != nil {
				flusher.Flush()
			}
		}
		if v.state == stateFailed {
			// The job failed mid-stream: abort the connection instead
			// of ending the chunked response cleanly, so a plain HTTP
			// client sees an unexpected EOF rather than a truncated
			// stream that looks complete.
			panic(http.ErrAbortHandler)
		}
		if v.state == stateDone {
			return
		}
		select {
		case <-v.update:
		case <-r.Context().Done():
			return
		}
	}
}

// copyRecords copies the published byte range [off, size) — always
// whole record lines — to w. While skipping, lines are decoded until
// one reaches cell `from`; everything from that line on is copied
// verbatim, so the suffix is byte-identical to the corresponding tail
// of the full stream.
func copyRecords(w io.Writer, f *os.File, off, size int64, from int, skipping *bool) (int64, error) {
	if !*skipping {
		_, err := io.Copy(w, io.NewSectionReader(f, off, size-off))
		return size, err
	}
	buf := make([]byte, size-off)
	if _, err := io.ReadFull(io.NewSectionReader(f, off, size-off), buf); err != nil {
		return off, err
	}
	rest := buf
	for len(rest) > 0 {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return off, fmt.Errorf("serve: published byte range ends mid-line")
		}
		rec, err := sink.DecodeJSONL(rest[:i])
		if err != nil {
			return off, err
		}
		if rec.Cell >= from {
			*skipping = false
			_, err := w.Write(rest)
			return size, err
		}
		rest = rest[i+1:]
	}
	return size, nil
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, dist.Catalogue())
}

// statsResponse is the GET /v1/stats body: a JSON introspection
// snapshot — job table by state, admission state, cache footprint, and
// the full metrics registry snapshot (the same data /metrics exposes as
// Prometheus text).
type statsResponse struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Jobs          map[string]int `json:"jobs"`
	QueueDepth    int            `json:"queue_depth"`
	Running       int            `json:"running"`
	CacheEntries  int            `json:"cache_entries"`
	CacheBytes    int64          `json:"cache_bytes"`
	Metrics       obs.Snapshot   `json:"metrics"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := map[string]int{}
	for _, j := range s.jobs {
		jobs[j.snapshot().state]++
	}
	queued, running := len(s.queue), s.running
	s.mu.Unlock()
	writeJSON(w, statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Jobs:          jobs,
		QueueDepth:    queued,
		Running:       running,
		CacheEntries:  s.cache.Entries(),
		CacheBytes:    s.cache.Size(),
		Metrics:       obs.Default.Snapshot(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
