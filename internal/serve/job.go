package serve

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"context"

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

// --- in-process execution ---------------------------------------------

// countWriter counts bytes on their way to the underlying writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// jobSink streams one job's records to its checkpoint file, flushing
// per record so the bytes on disk always end at a record boundary, and
// publishes the new high-water mark after every record so tailing
// clients wake immediately.
type jobSink struct {
	s       *Server
	j       *job
	enc     *sink.JSONL
	cw      *countWriter
	base    int // records in the resumed prefix
	written int
}

func (ws *jobSink) Write(rec sink.Record) error {
	if ws.s.closed.Load() {
		return errShutdown
	}
	if err := ws.enc.Write(rec); err != nil {
		return err
	}
	if err := ws.enc.Flush(); err != nil {
		return err
	}
	ws.written++
	records, bytes := ws.base+ws.written, ws.cw.n
	ws.j.publish(func(j *job) {
		j.records = records
		j.bytes = bytes
	})
	return nil
}

func (ws *jobSink) Close() error { return ws.enc.Flush() }

// partInfo describes the complete-cell prefix of a checkpointed part
// file.
type partInfo struct {
	cells   int
	records int
	bytes   int64
}

// validatePart scans an interrupted job's part checkpoint and returns
// the prefix of complete cells worth keeping: records must be
// newline-terminated (a final line cut before its '\n' is a torn
// write, not a record), must decode, cells must be gapless from 0, and
// — for experiments whose cells emit several records — the final cell
// is dropped, since its completeness is unknowable without the next
// cell's first record. Any undecodable or out-of-order line ends the
// valid prefix (a torn write, a flipped byte): everything from it on
// is discarded and recomputed, which determinism makes byte-identical
// to what was lost.
func validatePart(path string, multi bool, totalCells int) (partInfo, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return partInfo{}, false
	}
	var keep partInfo
	cur := -1
	records := 0
	var off int64
scan:
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn final write: no trailing newline, not a record
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(line) == 0 || line[0] == '#' {
			break // parts never hold markers or blanks; treat as damage
		}
		rec, err := sink.DecodeJSONL(line)
		if err != nil {
			break
		}
		switch {
		case rec.Cell == cur && multi:
			// another record of the current cell
		case rec.Cell == cur+1:
			// cell boundary: everything before this line is complete
			keep = partInfo{cells: rec.Cell, records: records, bytes: off}
			cur = rec.Cell
		default:
			break scan
		}
		records++
		off += int64(nl) + 1
		if !multi {
			keep = partInfo{cells: cur + 1, records: records, bytes: off}
		}
	}
	if keep.cells > totalCells {
		return partInfo{}, false // a stale part from a different enumeration
	}
	return keep, keep.cells > 0
}

// hashPrefix feeds the first n bytes of path into h.
func hashPrefix(path string, n int64, h hash.Hash) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.CopyN(h, f, n)
	return err
}

// runLocal executes a job on the in-process engine, checkpointing the
// record stream to the cache part file as cells complete. A valid part
// prefix left by an interrupted run is kept: the engine resumes at the
// first missing cell (exp.Options.FromCell) and the recomputed suffix
// continues the stream bit-for-bit — the determinism contract is what
// makes "resume" and "recompute" indistinguishable in the output.
func (s *Server) runLocal(ctx context.Context, j *job) error {
	part := s.cache.PartPath(j.key)
	pre, resuming := validatePart(part, j.multi, j.cells)
	if !resuming {
		pre = partInfo{}
	}
	h := sha256.New()
	var f *os.File
	var err error
	if resuming {
		if err := os.Truncate(part, pre.bytes); err != nil {
			return err
		}
		if err := hashPrefix(part, pre.bytes, h); err != nil {
			return err
		}
		if f, err = os.OpenFile(part, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return err
		}
		s.o.Logger.Info("job resuming from checkpoint",
			"job", j.key[:12], "resumed_cells", pre.cells, "cells", j.cells)
	} else if f, err = os.Create(part); err != nil {
		return err
	}
	defer f.Close()

	cw := &countWriter{w: f, n: pre.bytes}
	ws := &jobSink{s: s, j: j, enc: sink.NewJSONL(io.MultiWriter(cw, h)), cw: cw, base: pre.records}
	j.publish(func(j *job) {
		j.resumedCells = pre.cells
		j.cellsDone = pre.cells
		j.records = pre.records
		j.bytes = pre.bytes
		j.path = part
	})

	// The server context makes Shutdown a real cancellation: the engine
	// stops claiming cells at the next boundary instead of computing the
	// rest of the sweep into a sink that refuses every write.
	res, err := exp.Run(j.e, j.req.Seed, j.sc, exp.Options{
		Sink:     ws,
		FromCell: pre.cells,
		Context:  ctx,
		Progress: func(done, _ int) {
			j.publish(func(j *job) { j.cellsDone = pre.cells + done })
		},
	})
	if err != nil {
		return err // the part keeps its valid prefix for the next resume
	}
	if _, err := fmt.Fprintf(f, "%s\n", dist.DoneMarker(pre.records+ws.written, h.Sum(nil))); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(part, s.cache.EntryPath(j.key)); err != nil {
		return err
	}
	s.cache.Seal(j.key, pre.records+ws.written, cw.n, h.Sum(nil))
	if res == nil {
		// A resumed run (FromCell > 0) skips the engine's reduction —
		// its stream lacks the prefix. The finished entry holds the
		// whole stream, so replay it: the job's summary must not
		// depend on whether a restart happened along the way.
		if res, err = reduceEntry(j.e, s.cache.EntryPath(j.key)); err != nil {
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
		j.path = s.cache.EntryPath(j.key)
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
	ch := make(chan sink.Record, 64)
	done := make(chan exp.Result, 1)
	go func() { done <- e.Reduce(ch) }()
	sc := sink.NewLineScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		rec, err := sink.DecodeJSONL(line)
		if err != nil {
			close(ch)
			<-done
			return nil, err
		}
		if rec.Series == "trace" {
			continue // capture records ride the stream, never the reduction
		}
		ch <- rec
	}
	close(ch)
	res := <-done
	return res, sc.Err()
}

// --- coordinator execution --------------------------------------------

// lineTee receives the live merged stream of a coordinator run: bytes
// go to the part checkpoint and the running hash, but only whole lines
// are published — a consumer never observes a torn record even when the
// merger's buffer flushes mid-line.
type lineTee struct {
	s         *Server
	j         *job
	f         io.Writer
	h         hash.Hash
	n         int64 // bytes written
	published int64 // bytes up to the last newline
	lines     int
}

func (t *lineTee) Write(p []byte) (int, error) {
	if t.s.closed.Load() {
		return 0, errShutdown
	}
	if _, err := t.f.Write(p); err != nil {
		return 0, err
	}
	t.h.Write(p)
	t.n += int64(len(p))
	t.lines += bytes.Count(p, []byte{'\n'})
	if i := bytes.LastIndexByte(p, '\n'); i >= 0 {
		t.published = t.n - int64(len(p)-i-1)
		records, published := t.lines, t.published
		t.j.publish(func(j *job) {
			j.records = records
			j.bytes = published
		})
	}
	return len(p), nil
}

// runDist executes a wide job (shards > 1) through the distributed
// coordinator. The coordinator owns checkpoint/resume at shard
// granularity in the job's run directory; the part file is rebuilt each
// attempt from the live merged stream (replayed shards arrive instantly
// from their checkpoints, so nothing completed is recomputed).
func (s *Server) runDist(ctx context.Context, j *job) error {
	part := s.cache.PartPath(j.key)
	f, err := os.Create(part)
	if err != nil {
		return err
	}
	defer f.Close()
	tee := &lineTee{s: s, j: j, f: f, h: sha256.New()}
	j.publish(func(j *job) { j.path = part })

	rep, err := dist.Run(ctx, j.req, s.cache.RunDir(j.key), dist.Options{
		Slots:   s.o.Slots,
		Spawner: s.o.Spawner,
		Logger:  s.o.Logger.With("job", j.key[:12]),
		Stream:  tee,
		Progress: func(p dist.Progress) {
			j.publish(func(j *job) { j.cellsDone = p.MergedCells })
		},
	})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%s\n", dist.DoneMarker(tee.lines, tee.h.Sum(nil))); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(part, s.cache.EntryPath(j.key)); err != nil {
		return err
	}
	s.cache.Seal(j.key, tee.lines, tee.n, tee.h.Sum(nil))
	summary := ""
	if rep.Result != nil {
		var b strings.Builder
		rep.Result.Print(&b)
		summary = b.String()
	}
	reused := len(rep.Reused)
	j.publish(func(j *job) {
		j.state = stateDone
		j.path = s.cache.EntryPath(j.key)
		j.reusedShards = reused
		j.summary = summary
	})
	return nil
}
