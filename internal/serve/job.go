package serve

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments/exp"
	"repro/internal/obs/span"
	"repro/internal/scenario/sink"
)

// Job states. A job moves queued → running → done|failed; a cache hit
// is born done.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// errShutdown aborts in-flight record writes when the server is
// stopping; the checkpointed prefix stays on disk for the resume.
var errShutdown = errors.New("serve: server shutting down")

// job is one coalesced unit of work: every submission whose canonical
// form hashes to the same key attaches to the same job, and every
// attached client streams the same bytes. Mutable state is guarded by
// mu; update is closed-and-replaced on every publish so streaming
// readers can wait for changes without polling.
type job struct {
	key   string
	req   dist.Job
	e     exp.Experiment
	sc    exp.Scale
	multi bool // the experiment's cells may emit several records
	cells int

	// Trace state, set once in submit before the job becomes reachable
	// (so reads need no lock): the job's root span in the server-wide
	// recorder, the open "queued" child, and when the job was enqueued.
	span       *span.Span
	queuedSpan *span.Span
	queuedAt   time.Time

	// Guarded by the server's mu, not the job's: the one "coalesced"
	// marker span (opened by the first attach) and how many submissions
	// have attached — a hot key costs one span, not one per hit.
	coalescedSpan *span.Span
	coalesced     int

	mu           sync.Mutex
	state        string
	cacheHit     bool // satisfied from a validated cache entry, no execution
	resumedCells int  // cells restored from a part checkpoint before execution
	reusedShards int  // shard checkpoints a coordinator execution replayed
	cellsDone    int
	records      int
	bytes        int64  // published record bytes in path (always a line boundary)
	path         string // part file while running, entry once done
	errMsg       string
	summary      string
	finished     time.Time // when the job reached a terminal state
	update       chan struct{}
}

func newJob(key string, req dist.Job, e exp.Experiment, sc exp.Scale) *job {
	_, multi := e.(exp.RecordStreamer)
	return &job{
		key:    key,
		req:    req,
		e:      e,
		sc:     sc,
		multi:  multi,
		cells:  len(e.Cells(req.Seed, sc)),
		state:  stateQueued,
		update: make(chan struct{}),
	}
}

// publish applies f under the job lock and wakes every waiter. The
// terminal timestamp is stamped here so every path into done/failed —
// execution, cache hit, shutdown — feeds the TTL sweep consistently.
func (j *job) publish(f func(*job)) {
	j.mu.Lock()
	f(j)
	if terminal(j.state) && j.finished.IsZero() {
		j.finished = time.Now()
	}
	close(j.update)
	j.update = make(chan struct{})
	j.mu.Unlock()
}

// view is an immutable snapshot of the job's mutable state.
type view struct {
	state        string
	cacheHit     bool
	resumedCells int
	reusedShards int
	cellsDone    int
	records      int
	bytes        int64
	path         string
	errMsg       string
	summary      string
	finished     time.Time
	update       chan struct{}
}

func (j *job) snapshot() view {
	j.mu.Lock()
	defer j.mu.Unlock()
	return view{
		state:        j.state,
		cacheHit:     j.cacheHit,
		resumedCells: j.resumedCells,
		reusedShards: j.reusedShards,
		cellsDone:    j.cellsDone,
		records:      j.records,
		bytes:        j.bytes,
		path:         j.path,
		errMsg:       j.errMsg,
		summary:      j.summary,
		finished:     j.finished,
		update:       j.update,
	}
}

// terminal reports whether a state is final.
func terminal(state string) bool { return state == stateDone || state == stateFailed }

// --- execution ----------------------------------------------------------

// logPublisher is the one writer between a job's producer and its record
// log: bytes go to the log, and whenever they complete a line the new
// high-water mark is published so tailing clients wake immediately. Only
// whole lines are ever published — a consumer never observes a torn
// record even when the coordinator's merger flushes mid-line.
type logPublisher struct {
	s   *Server
	j   *job
	log *sink.Log
}

func (p *logPublisher) Write(b []byte) (int, error) {
	if p.s.closed.Load() {
		return 0, errShutdown
	}
	before := p.log.Boundary()
	n, err := p.log.Write(b)
	if records, bytes := p.log.Records(), p.log.Boundary(); bytes != before {
		p.j.publish(func(j *job) {
			j.records = records
			j.bytes = bytes
		})
	}
	return n, err
}

// run executes a job into its record log — the cache part file — and
// seals it into the cache. Only the producer differs between a plain job
// and a wide one (shards > 1).
//
// The in-process engine resumes inside the stream: a valid part prefix
// left by an interrupted run is kept and the engine starts at the first
// missing cell (exp.Options.FromCell) — determinism makes the recomputed
// suffix continue the stream bit-for-bit. The coordinator resumes from
// its own shard checkpoints in the job's run directory, so its part is
// rebuilt from the live merged stream (replayed shards arrive instantly;
// nothing completed is recomputed).
//
// ctx makes Shutdown a real cancellation: the engine stops claiming cells
// at the next boundary, the coordinator kills its workers, and the part
// keeps its valid prefix for the next resume.
func (s *Server) run(ctx context.Context, j *job) error {
	entry := s.cache.EntryPath(j.key)
	sharded := j.req.Shards > 1
	var pre sink.Prefix
	if !sharded {
		pre = sink.ScanPart(entry, j.multi, j.cells)
	}
	lg, err := sink.ResumeLog(entry, pre.Bytes, nil)
	if err != nil {
		return err
	}
	defer lg.Close()
	if pre.Cells > 0 {
		s.o.Logger.Info("job resuming from checkpoint",
			"job", j.key[:12], "resumed_cells", pre.Cells, "cells", j.cells)
	}
	j.publish(func(j *job) {
		j.resumedCells = pre.Cells
		j.cellsDone = pre.Cells
		j.records = pre.Records
		j.bytes = pre.Bytes
		j.path = sink.PartPath(entry)
	})

	out := &logPublisher{s: s, j: j, log: lg}
	var res exp.Result
	reused := 0
	if sharded {
		var rep *dist.Report
		rep, err = dist.Run(ctx, j.req, s.cache.RunDir(j.key), dist.Options{
			Slots:   s.o.Slots,
			Spawner: s.o.Spawner,
			Logger:  s.o.Logger.With("job", j.key[:12]),
			Stream:  out,
			Progress: func(p dist.Progress) {
				j.publish(func(j *job) { j.cellsDone = p.MergedCells })
			},
		})
		if err == nil {
			res, reused = rep.Result, len(rep.Reused)
		}
	} else {
		res, err = exp.Run(j.e, j.req.Seed, j.sc, exp.Options{
			Sink:     sink.NewLiveJSONL(out),
			FromCell: pre.Cells,
			Context:  ctx,
			Progress: func(done, _ int) {
				j.publish(func(j *job) { j.cellsDone = pre.Cells + done })
			},
		})
	}
	if err != nil {
		return err
	}
	if err := lg.Seal(); err != nil {
		return err
	}
	s.cache.Seal(j.key, lg)
	if res == nil {
		// A resumed run (FromCell > 0) skips the engine's reduction —
		// its stream lacks the prefix. The finished entry holds the
		// whole stream, so replay it: the job's summary must not
		// depend on whether a restart happened along the way.
		if res, err = reduceEntry(j.e, entry); err != nil {
			return err
		}
	}
	summary := ""
	if res != nil {
		var b strings.Builder
		res.Print(&b)
		summary = b.String()
	}
	j.publish(func(j *job) {
		j.state = stateDone
		j.path = entry
		j.reusedShards = reused
		j.summary = summary
	})
	return nil
}

// reduceEntry replays a finished entry's record stream through the
// experiment's reduction.
func reduceEntry(e exp.Experiment, path string) (exp.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	red := exp.NewReduction(e)
	defer red.Finish()
	sc := sink.NewLineScanner(f)
	var dec sink.Decoder
	for sc.Scan() {
		line := sc.Bytes()
		if !sink.IsRecord(line) {
			continue
		}
		rec, err := dec.Decode(line)
		if err != nil {
			return nil, err
		}
		red.Feed(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return red.Finish()
}
