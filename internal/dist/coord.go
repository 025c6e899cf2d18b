package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist/fault"
	"repro/internal/experiments/exp"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/scenario/sink"
)

// Options tunes a coordinator run.
type Options struct {
	// Slots is the number of concurrent workers; 0 means
	// min(shards, GOMAXPROCS).
	Slots int
	// MaxAttempts bounds how often one shard is dispatched before the
	// run gives up (default 3). Exhausting it fails the run but leaves
	// every completed shard checkpointed for a resume. Steal
	// re-dispatches do not count against it (they are bounded
	// separately, by the same number).
	MaxAttempts int
	// Backoff is the base retry delay (default 200ms): attempt n waits
	// n×Backoff, capped at 5×Backoff and shortened by up to half by a
	// hash of (job seed, shard, attempt) — reproducible, but spread so
	// shards that failed together do not retry in lockstep.
	Backoff time.Duration
	// AttemptTimeout bounds one shard dispatch; 0 means no bound. Set
	// it for remote pools where a wedged transport would otherwise hold
	// its slot forever (the hang is then killed and retried like any
	// other worker failure).
	AttemptTimeout time.Duration
	// StealAfter enables work stealing: when the merge frontier has not
	// advanced for this long and a worker slot is free, the attempt
	// serving the frontier's shard is killed and the shard re-dispatched
	// from the frontier cell; the lines the victim already merged are
	// verified and skipped, so a steal can never change the merged bytes.
	// 0 disables stealing.
	StealAfter time.Duration
	// Spawner launches workers; nil uses SelfSpawner (local `work`
	// subprocesses of this binary). Workers are long-lived: each slot's
	// worker is kept across dispatches and only respawned after a
	// failure, kill, or steal.
	Spawner Spawner
	// Logger receives structured coordinator events (dispatch, retry,
	// steal, spawn, divergence), with shard/slot/attempt/cell fields.
	// Nil discards.
	Logger *slog.Logger
	// Stream, when set, receives a live copy of the merged record stream
	// — the same bytes written to dir/merged.jsonl — flushed at cell
	// granularity so a consumer (the serve layer's record endpoint, a
	// progress UI) can tail the run while late shards are still working.
	Stream io.Writer
	// Progress, when set, observes merge progress after every merged
	// batch of records and shard completion, on the coordinator's loop
	// goroutine that every worker stream waits on: keep it fast.
	Progress func(Progress)

	// onShardDone, when set, observes each shard checkpoint as it is
	// finalized (fault tests use it to cancel mid-run).
	onShardDone func(shard int)
}

// Progress is one merge-progress observation: how far the global cell
// frontier has advanced (exp.Merger.Frontier) and how many shards have
// checkpointed, including shards reused from a previous run.
type Progress struct {
	MergedCells int // cells fully merged (the frontier)
	Cells       int // total cells in the enumeration
	ShardsDone  int // shards checkpointed (reused + completed this run)
	Shards      int // total shard count
}

// Report summarizes a coordinator run.
type Report struct {
	Cells    int   // cell-enumeration size
	Reused   []int // shards restored from valid checkpoints
	Ran      []int // shards dispatched this run
	Attempts []int // per-shard dispatch counts this run (steals included)
	Steals   []int // per-shard steal re-dispatches this run
	Spawns   int   // worker processes spawned (long-lived: usually ≤ slots)
	Result   exp.Result
}

// errFatal marks a failure no retry can fix, such as a determinism
// violation: a retried worker reproduced different bytes than its
// predecessor.
var errFatal = errors.New("not retryable")

// errStolen is why the loop kills a stalled attempt: its shard is then
// re-dispatched at once, not counted as a failed attempt.
var errStolen = errors.New("dist: attempt stolen (merge frontier stalled)")

// The fixed retry policy: attempt n waits n×base capped at
// maxBackoff×base, shortened by up to retryJitter of itself by a hash of
// (seed, shard, attempt) — reproducible, but decorrelated across shards.
const (
	maxBackoff  = 5
	retryJitter = 0.5
)

func retryDelay(base time.Duration, seed int64, shard, attempt int) time.Duration {
	d := time.Duration(min(attempt, maxBackoff)) * base
	u := float64(fault.Mix64(uint64(seed), uint64(shard), uint64(attempt))>>11) / (1 << 53)
	return time.Duration(float64(d) * (1 - retryJitter*u))
}

// Run executes (or resumes) a sharded experiment run in dir. It
// validates the manifest and any checkpointed shards, dispatches the
// missing residue classes over a pool of long-lived worker slots,
// live-merges every shard stream in cell order into dir/merged.jsonl,
// and returns the reduction. The merged bytes are byte-identical to an
// unsharded run of the same job — for any slot count, failure schedule,
// steal schedule, or resume point.
//
// Cancelling ctx stops the run promptly: in-flight workers are killed,
// no new attempts start, and every shard completed so far stays
// checkpointed, so rerunning with the same directory resumes.
func Run(ctx context.Context, job Job, dir string, o Options) (*Report, error) {
	if job.Shards < 1 {
		return nil, fmt.Errorf("dist: need at least 1 shard (got %d)", job.Shards)
	}
	e, sc, err := job.Resolve()
	if err != nil {
		return nil, err
	}
	if o.Logger == nil {
		o.Logger = obs.Discard()
	}
	if o.Slots <= 0 {
		o.Slots = min(job.Shards, runtime.GOMAXPROCS(0))
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 200 * time.Millisecond
	}
	if o.Spawner == nil {
		if o.Spawner, err = SelfSpawner(os.Stderr); err != nil {
			return nil, err
		}
	}

	cells := len(e.Cells(job.Seed, sc))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	created := time.Now().UTC().Format(time.RFC3339)
	if err := loadOrWriteManifest(filepath.Join(dir, "run.json"), job, cells, created); err != nil {
		return nil, err
	}

	rep := &Report{Cells: cells, Attempts: make([]int, job.Shards), Steals: make([]int, job.Shards)}
	r := &run{
		job:     job,
		dir:     dir,
		o:       o,
		sp:      span.FromContext(ctx),
		rep:     rep,
		replays: make(map[int]*bufio.Scanner),
		shards:  make([]shardRun, job.Shards),
		slots:   make([]*worker, o.Slots),
		events:  make(chan *attempt),
	}
	for i := range r.shards {
		if n, _, _, ok := sink.ValidateLog(shardPath(dir, i)); ok {
			// A checkpointed shard replays lazily, read only as the merge
			// frontier demands its cells, so it stays on disk instead of in
			// the merger's queues.
			f, err := os.Open(shardPath(dir, i))
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r.replays[i] = sink.NewLineScanner(f)
			o.Logger.Info("reusing checkpoint", "shard", i, "shards", job.Shards, "records", n)
			rep.Reused = append(rep.Reused, i)
			continue
		}
		rep.Ran = append(rep.Ran, i)
		r.shards[i] = shardRun{queued: true, attempt: 1, st: shardState{curCell: -1}}
	}
	r.shardsDone = len(rep.Reused)

	mergedPart := filepath.Join(dir, "merged.jsonl.part")
	mergedF, err := os.Create(mergedPart)
	if err != nil {
		return nil, err
	}
	defer mergedF.Close()

	var mergedOut io.Writer = mergedF
	if o.Stream != nil {
		mergedOut = io.MultiWriter(mergedF, o.Stream)
	}
	r.merger = exp.NewMerger(mergedOut, job.Shards, e)
	if o.Stream != nil {
		r.merger.AutoFlush(true)
	}
	defer r.merger.Abort() // no-op after a successful Finish

	err = r.pump()
	r.report()
	if err != nil {
		return nil, fmt.Errorf("dist: replaying checkpointed shards: %w", err)
	}

	r.loop(ctx)
	if len(r.failures) > 0 {
		return rep, fmt.Errorf("dist: run incomplete (completed shards stay checkpointed in %s; rerun with the same directory to resume): %w",
			dir, errors.Join(r.failures...))
	}

	reduceSpan := r.sp.Child("reduce")
	res, err := r.merger.Finish(cells)
	reduceSpan.End()
	if err != nil {
		return rep, err
	}
	if err := mergedF.Sync(); err != nil {
		return rep, err
	}
	if err := os.Rename(mergedPart, filepath.Join(dir, "merged.jsonl")); err != nil {
		return rep, err
	}
	rep.Result = res
	return rep, nil
}

// run is the state of one coordinator invocation. All of it belongs to
// the loop goroutine; a worker's reader goroutine touches only the
// attempt the loop hands it and the worker's output stream.
type run struct {
	job        Job
	dir        string
	o          Options
	sp         *span.Span // trace parent from Run's ctx; nil when untraced
	rep        *Report
	merger     *exp.Merger
	replays    map[int]*bufio.Scanner // checkpointed shards not yet merged
	shardsDone int                    // checkpointed shards (reused + completed this run)

	shards   []shardRun
	slots    []*worker     // live worker per slot, nil when empty
	events   chan *attempt // from the readers: a line to merge, or an attempt's end
	readers  sync.WaitGroup
	failures []error

	frontier    int       // merge frontier at the last report
	lastAdvance time.Time // frontier last moved, or its shard was dispatched
}

// shardRun is the loop's scheduling state for one shard.
type shardRun struct {
	queued   bool      // waiting for a slot
	readyAt  time.Time // end of the retry backoff
	backoff  *span.Span
	attempt  int // failed attempts + 1, bounded by MaxAttempts
	fromCell int // where a steal's thief resumes
	st       shardState
}

// shardState is how much of a shard's deterministic stream has been
// merged, across its attempts: a retry (or a steal's thief) re-produces
// the same bytes, so its first lines are verified against the merged
// prefix and skipped. A steal's thief resumes at the current cell, from
// the snapshot of where that cell begins. An attempt merges each line
// before logging it, and tallies what a failed write left out, so once
// its prefix is verified the log's own count and hash are the merged
// stream's: no separate hash is kept.
type shardState struct {
	pushed int    // lines merged
	sum    []byte // sha256 over the merged lines ('\n' included)

	curCell        int    // cell of the last merged line, -1 before the first
	cellStart      int    // merged-line count where curCell begins
	cellStartBytes int64  // byte offset where curCell begins
	cellStartSum   []byte // sum at cellStart
}

// worker is one live worker bound to a slot. Its reader goroutine (serve)
// owns the output stream; the loop owns the rest.
type worker struct {
	slot     int
	w        *Worker
	sc       *bufio.Scanner // persistent: the scanner owns read buffering
	assign   chan *attempt  // loop → reader; closed to shut the worker down
	reply    chan struct{}  // loop → reader: cur.lines are merged (see cur.cells, cur.err)
	more     bool           // the scanner holds another line (reader-owned)
	cur      *attempt       // in flight, nil when idle
	deadline time.Time      // AttemptTimeout expiry of cur
	cause    error          // why the loop killed the worker (its reader then sees EOF), if it did
}

// attempt is one dispatch of a shard, passed between the loop and the
// worker's reader: the loop fills in the request, the reader sends it
// back with each batch of record lines to merge (waiting on wk.reply)
// and, with no lines, once more with the outcome.
type attempt struct {
	wk                 *worker
	shard, n, fromCell int
	span               *span.Span
	lines              [][]byte   // record lines to merge, in stream order
	cells              []int      // the cells of the lines the loop merged
	st                 shardState // merge progress: before, then after the attempt
	done               bool       // the worker sent its completion marker
	err, waitErr       error      // waitErr: exit status of a worker reaped after err
}

// loop is the coordinator: the one goroutine that owns all run state. It
// reacts to reader events, to its one wake timer (backoff expiry, attempt
// deadlines, the steal check) and to ctx, and dispatches queued shards in
// index order — shard 0, which owns cell 0, first. It returns once every
// shard has completed or given up and every worker has been reaped.
func (r *run) loop(ctx context.Context) {
	wake := time.NewTimer(time.Hour)
	defer wake.Stop()
	r.lastAdvance = time.Now()
	cancelled := ctx.Done()
	for {
		now := time.Now()
		r.dispatch(ctx, now)
		next, busy := r.timers(now)
		if !busy {
			break
		}
		if !next.IsZero() {
			wake.Reset(next.Sub(now)) // a stale wake is harmless
		}
	wait:
		select {
		case a := <-r.events:
			if !r.handle(ctx, a) {
				goto wait // a merged batch frees no slot and brings no timer forward
			}
		case <-wake.C:
		case <-cancelled:
			// Kill every attempt in flight; dispatch gives the queued shards
			// up, the killed attempts' ends theirs.
			cancelled = nil
			for _, wk := range r.slots {
				if wk != nil && wk.cur != nil && wk.cause == nil {
					wk.cause = ctx.Err()
					wk.w.Kill()
				}
			}
		}
	}
	for _, wk := range r.slots {
		if wk != nil {
			close(wk.assign) // its reader reaps the idle worker
		}
	}
	r.readers.Wait()
}

// timers acts on every due timer — a backoff ends, an attempt past its
// deadline is killed, a stalled frontier is stolen — and reports when
// the next is due (zero if none) and whether any shard is queued or in
// flight.
func (r *run) timers(now time.Time) (next time.Time, busy bool) {
	due := func(t time.Time) bool {
		if t.After(now) && (next.IsZero() || t.Before(next)) {
			next = t
		}
		return !t.After(now)
	}
	for i := range r.shards {
		if sh := &r.shards[i]; sh.queued {
			busy = true
			if due(sh.readyAt) {
				sh.backoff.End()
			}
		}
	}
	for _, wk := range r.slots {
		if wk != nil && wk.cur != nil {
			busy = true
			if wk.cause == nil && !wk.deadline.IsZero() && due(wk.deadline) {
				wk.cause = context.DeadlineExceeded
				wk.w.Kill()
			}
		}
	}
	if busy && r.o.StealAfter > 0 && due(r.lastAdvance.Add(r.o.StealAfter)) {
		r.steal(now)
	}
	return next, busy
}

// dispatch starts queued shards whose backoff is over on free slots, in
// index order, spawning an empty slot's worker and its reader goroutine.
// Once the run is cancelled it gives every queued shard up instead.
func (r *run) dispatch(ctx context.Context, now time.Time) {
	for shard := range r.shards {
		sh := &r.shards[shard]
		if sh.queued && ctx.Err() != nil {
			sh.queued = false
			sh.backoff.End()
			r.failures = append(r.failures, fmt.Errorf("shard %d/%d: %w", shard, r.job.Shards, ctx.Err()))
		}
		if !sh.queued || sh.readyAt.After(now) {
			continue
		}
		slot := slices.IndexFunc(r.slots, func(wk *worker) bool { return wk == nil || wk.cur == nil })
		if slot < 0 {
			return
		}
		sh.queued = false
		sh.backoff.End()
		r.rep.Attempts[shard]++
		n := r.rep.Attempts[shard]
		metDispatches.Inc()
		r.o.Logger.Debug("dispatch",
			"shard", shard, "shards", r.job.Shards, "slot", slot, "attempt", n, "from_cell", sh.fromCell)
		dsp := r.sp.Child("dispatch", span.Int("shard", shard), span.Int("slot", slot),
			span.Int("attempt", n), span.Int("from_cell", sh.fromCell))
		wk := r.slots[slot]
		if wk == nil {
			spawnAt := time.Now()
			w, err := r.o.Spawner.Spawn(ctx, slot)
			if err != nil {
				dsp.End()
				r.failed(ctx, shard, err) // the slot stays free for the next shard
				continue
			}
			r.rep.Spawns++
			metSpawns.Inc()
			r.o.Logger.Info("spawned worker", "slot", slot, "spawns", r.rep.Spawns)
			dsp.ChildAt(spawnAt, "spawn").End()
			wk = &worker{slot: slot, w: w, sc: sink.NewLineScanner(w.Out),
				assign: make(chan *attempt, 1), reply: make(chan struct{}, 1)}
			wk.sc.Split(wk.split)
			r.slots[slot] = wk
			r.readers.Add(1)
			go r.serve(wk)
		}
		wk.cur = &attempt{wk: wk, shard: shard, n: n, fromCell: sh.fromCell, span: dsp, st: sh.st}
		if r.o.AttemptTimeout > 0 {
			wk.deadline = time.Now().Add(r.o.AttemptTimeout)
		}
		if shard == r.frontier%r.job.Shards {
			r.lastAdvance = now // a fresh attempt gets a full stall window
		}
		wk.assign <- wk.cur
	}
}

// handle merges the lines a reader sent, or settles its ended attempt
// and reports true.
func (r *run) handle(ctx context.Context, a *attempt) bool {
	wk := a.wk
	if len(a.lines) > 0 {
		// Merge the lines in order, then feed any checkpointed shards the
		// frontier advanced into.
		a.cells = a.cells[:0]
		for _, line := range a.lines {
			if a.err = r.merger.Push(a.shard, line); a.err != nil {
				break
			}
			a.cells = append(a.cells, r.merger.Last(a.shard))
		}
		if a.err == nil {
			a.err = r.pump()
		}
		r.report()
		wk.reply <- struct{}{}
		return false
	}
	wk.cur, wk.deadline = nil, time.Time{}
	a.span.End()
	r.shards[a.shard].st = a.st
	if a.err == nil {
		if wk.cause != nil { // killed after its shard completed: retire it
			r.slots[wk.slot] = nil
			close(wk.assign)
		}
		r.shardsDone++
		err := r.merger.CloseShard(a.shard)
		if err == nil {
			err = r.pump()
		}
		r.report()
		if err != nil {
			r.failed(ctx, a.shard, fmt.Errorf("%w (%w)", err, errFatal))
			return true
		}
		r.o.Logger.Info("shard complete", "shard", a.shard, "shards", r.job.Shards, "records", a.st.pushed)
		if r.o.onShardDone != nil {
			r.o.onShardDone(a.shard)
		}
		return true
	}
	r.slots[wk.slot] = nil // the reader reaped the worker
	err := a.err
	switch {
	case errors.Is(err, errFatal):
		r.o.Logger.Error("determinism violation",
			"shard", a.shard, "shards", r.job.Shards, "attempt", a.n, "err", err)
	case errors.Is(wk.cause, errStolen):
		err = fmt.Errorf("shard %d dispatch %d: %w", a.shard, a.n, errStolen)
	case errors.Is(wk.cause, context.DeadlineExceeded):
		err = fmt.Errorf("attempt deadline (%s) exceeded, worker killed: %w", r.o.AttemptTimeout, wk.cause)
	case !a.done && a.waitErr != nil:
		err = fmt.Errorf("worker died without completion marker: %w (stream: %v)", a.waitErr, err)
	}
	r.failed(ctx, a.shard, err)
	return true
}

// failed decides what follows a failed dispatch: a steal re-dispatches at
// once, a retryable failure queues the shard behind its backoff, and
// anything else — a fatal error, exhausted attempts, cancellation —
// gives the shard up.
func (r *run) failed(ctx context.Context, shard int, err error) {
	sh := &r.shards[shard]
	sh.fromCell = 0
	if errors.Is(err, errStolen) && r.rep.Steals[shard] < r.o.MaxAttempts && ctx.Err() == nil {
		// A steal is not a worker failure: the thief is suffix-dispatched
		// from the victim's frontier cell at once, without burning an
		// attempt or backing off — bounded so a shard that keeps stalling
		// cannot steal forever.
		r.rep.Steals[shard]++
		metSteals.Inc()
		sh.fromCell = max(sh.st.curCell, 0)
		r.o.Logger.Info("stalled attempt killed, re-dispatching",
			"shard", shard, "shards", r.job.Shards, "from_cell", sh.fromCell, "steal", r.rep.Steals[shard])
		sh.queued, sh.readyAt = true, time.Time{}
		return
	}
	r.o.Logger.Warn("attempt failed",
		"shard", shard, "shards", r.job.Shards, "attempt", sh.attempt, "err", err)
	if ctx.Err() == nil && !errors.Is(err, errFatal) {
		sh.attempt++
		metRetries.Inc()
		if sh.attempt <= r.o.MaxAttempts {
			d := retryDelay(r.o.Backoff, r.job.Seed, shard, sh.attempt-1)
			metBackoffWaits.Inc()
			metBackoffSeconds.Add(d.Seconds())
			r.o.Logger.Debug("retry backoff", "shard", shard, "attempt", sh.attempt, "delay", d)
			sh.backoff = r.sp.Child("backoff",
				span.Int("shard", shard), span.Int("attempt", sh.attempt), span.Str("delay", d.String()))
			sh.queued, sh.readyAt = true, time.Now().Add(d)
			return
		}
	}
	r.failures = append(r.failures,
		fmt.Errorf("shard %d/%d failed after %d attempt(s): %w", shard, r.job.Shards, r.rep.Attempts[shard], err))
}

// steal runs when the merge frontier has not advanced for StealAfter:
// the worker serving the frontier's shard is killed, and its attempt's
// end queues a suffix re-dispatch of the residue class.
func (r *run) steal(now time.Time) {
	var victim *worker
	free, busy := false, 0
	for _, wk := range r.slots {
		switch {
		case wk == nil || wk.cur == nil:
			free = true
		case wk.cur.shard == r.frontier%r.job.Shards && wk.cause == nil:
			victim = wk
			fallthrough
		default:
			busy++
		}
	}
	// With no free slot and other shards using them, a steal would just
	// queue behind healthy work; a lone stalled attempt frees its own
	// slot. Either way the next event checks again.
	if victim == nil || (!free && busy > 1) || r.frontier >= r.rep.Cells {
		return
	}
	metStallSeconds.Add(now.Sub(r.lastAdvance).Seconds())
	// The stall interval is only known in hindsight: backdate it to the
	// frontier's last advance.
	r.sp.ChildAt(r.lastAdvance, "stall", span.Int("shard", victim.cur.shard), span.Int("cell", r.frontier)).End()
	r.o.Logger.Info("frontier stalled, stealing",
		"shard", victim.cur.shard, "shards", r.job.Shards, "cell", r.frontier, "stalled_for", r.o.StealAfter)
	victim.cause = errStolen
	victim.w.Kill()
}

// split is bufio.ScanLines, noting whether the scanner already holds the
// next line: until it needs one it does not hold, it does not read, so
// the lines it returned stay valid.
func (wk *worker) split(data []byte, atEOF bool) (int, []byte, error) {
	adv, tok, err := bufio.ScanLines(data, atEOF)
	wk.more = tok != nil && bytes.IndexByte(data[adv:], '\n') >= 0
	return adv, tok, err
}

// serve is the reader goroutine of one worker: it runs each attempt the
// loop assigns, and reaps the worker (so the loop never blocks on a
// process) after a failed one or once the loop closes assign.
func (r *run) serve(wk *worker) {
	defer r.readers.Done()
	reap := func() error {
		wk.w.In.Close() // the clean shutdown signal; Kill is the backstop
		wk.w.Kill()
		wk.w.Out.Close()
		return wk.w.Wait()
	}
	for a := range wk.assign {
		if r.stream(wk, a); a.err == nil {
			r.events <- a
			continue
		}
		// A failed worker may be dead or healthy-but-unusable (merge
		// error mid-stream): its stream state is unknown either way.
		a.waitErr = reap()
		r.events <- a
		return
	}
	reap()
}

// report publishes a progress observation and notes frontier advances
// for the steal check.
func (r *run) report() {
	f := r.merger.Frontier()
	if f != r.frontier {
		r.frontier, r.lastAdvance = f, time.Now()
	}
	metFrontier.Set(float64(f))
	if r.o.Progress != nil {
		r.o.Progress(Progress{
			MergedCells: f,
			Cells:       r.rep.Cells,
			ShardsDone:  r.shardsDone,
			Shards:      r.job.Shards,
		})
	}
}

// pump feeds checkpointed shard files into the merger for as long as
// the frontier cell belongs to one of them: the cursor's next lines are
// exactly the frontier's records, so the merger queues stay near-empty
// for replayed shards.
func (r *run) pump() error {
	for {
		j := r.merger.Frontier() % r.job.Shards
		sc, ok := r.replays[j]
		if !ok {
			return nil // frontier owned by a live (or finished) shard
		}
		if sc.Scan() {
			if err := r.merger.Push(j, sc.Bytes()); err != nil {
				return err
			}
			continue
		}
		delete(r.replays, j)
		if err := sc.Err(); err != nil {
			return err
		}
		if err := r.merger.CloseShard(j); err != nil {
			return err
		}
	}
}

// logWrite appends to a checkpoint log; fault tests make it fail.
var logWrite = (*sink.Log).Write

func shardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard_%d.jsonl", shard))
}

// stream runs one attempt on the worker's reader goroutine: consume the
// #ready heartbeat, send the request, stream the shard's records into
// the checkpoint log — verifying the prefix earlier attempts merged and
// handing every later line to the loop to merge — and check the
// completion marker. On success the checkpoint is sealed and the worker
// stays pooled.
//
// fromCell > 0 is a steal's suffix dispatch: the worker streams only
// cells >= fromCell, and the previous attempt's part file supplies the
// earlier cells if sink.ResumeLog verifies them (the victim may have left
// a torn tail); if not, the dispatch falls back to a full re-stream.
func (r *run) stream(wk *worker, a *attempt) {
	shard, fromCell, st := a.shard, a.fromCell, &a.st
	path := shardPath(r.dir, shard)
	var lg *sink.Log
	var err error
	if fromCell > 0 {
		if lg, err = sink.ResumeLog(path, st.cellStartBytes, st.cellStartSum); err != nil {
			r.o.Logger.Warn("part file unusable for suffix dispatch, re-streaming",
				"shard", shard, "shards", r.job.Shards, "from_cell", 0, "err", err)
			fromCell = 0
		}
	}
	if fromCell == 0 {
		if lg, a.err = sink.CreateLog(path); a.err != nil {
			return
		}
	}
	defer lg.Close()
	// Run resolved the job, so its Spec is valid JSON: this cannot fail.
	req, _ := json.Marshal(workRequest{
		Job:      r.job,
		Shard:    exp.Shard{Index: shard, Count: r.job.Shards},
		Attempt:  a.n,
		FromCell: fromCell,
	})

	// prefix: the merged lines this attempt streams again and must
	// reproduce bit for bit — all of them on a full re-stream, the
	// frontier cell's on a suffix dispatch. Either way the log then holds
	// exactly the merged stream, so its hash must equal the merged one.
	prefix := st.pushed
	if fromCell > 0 {
		prefix -= st.cellStart
	}
	shardCell := metShardCell.With(strconv.Itoa(shard))
	// The tally of every record line this attempt streamed, checked
	// against the worker's marker: on a full dispatch that is the log.
	at := lg.Tally
	if fromCell > 0 {
		at = sink.NewTally()
	}
	// Spans: ready.wait until the heartbeat (spawn cost on a fresh slot),
	// then stream to the end, with the prefix replay as a verify child.
	readySp := a.span.Child("ready.wait")
	var streamSp, verifySp *span.Span
	defer func() { verifySp.End(); streamSp.End(); readySp.End() }()
	var (
		seen, doneN int
		doneSum     string
		expectReady = true
	)
	// logLine appends a streamed record line to the checkpoint log.
	logLine := func(line []byte) error {
		rec := append(line, '\n')
		if n, err := logWrite(lg, rec); err != nil {
			lg.Tally.Write(rec[n:]) // the tally still follows the merged stream
			return err
		}
		if at != lg.Tally {
			at.Write(rec)
		}
		if seen++; seen == prefix {
			// Replaying the prefix a previous attempt merged: the retry
			// must have reproduced it bit for bit.
			verifySp.End()
			if !bytes.Equal(lg.Sum(), st.sum) {
				return fmt.Errorf("retried shard %d reproduced different bytes than its merged prefix (%d lines) — determinism violation, %w", shard, prefix, errFatal)
			}
		}
		return nil
	}
	for a.err == nil && wk.sc.Scan() {
		line := wk.sc.Bytes()
		// Past the replayed prefix, record lines go to the loop in batches
		// of what the scanner holds (they stay valid until it reads). The
		// merged lines are then logged, snapshotting the stream position at
		// each new cell's first line for a future steal's suffix dispatch.
		batched := !expectReady && sink.IsRecord(line) && seen >= prefix
		if batched {
			a.lines = append(a.lines, line)
		}
		if len(a.lines) > 0 && (!batched || !wk.more) {
			r.events <- a
			<-wk.reply
			for i, cell := range a.cells {
				if cell != st.curCell {
					st.curCell, st.cellStart, st.cellStartBytes, st.cellStartSum =
						cell, lg.Records(), lg.Boundary(), lg.Sum()
					shardCell.Set(float64(cell))
				}
				// Past a failed write too: the tally must cover every merged line.
				if err := logLine(a.lines[i]); a.err == nil {
					a.err = err
				}
			}
			a.lines = a.lines[:0]
		}
		if batched || a.err != nil {
			continue
		}
		switch {
		case len(line) == 0:
			continue
		case expectReady && string(line) == ReadyMarker:
			// The idle heartbeat, on a fresh spawn and on a pooled worker
			// alike: the worker now blocks reading its stdin, so the
			// request write cannot deadlock even over synchronous pipes.
			expectReady = false
			metHeartbeats.Inc()
			readySp.End()
			streamSp = a.span.Child("stream")
			if prefix > 0 {
				verifySp = streamSp.Child("verify",
					span.Int("lines", prefix), span.Str("suffix", strconv.FormatBool(fromCell > 0)))
			}
			if _, err := wk.w.In.Write(append(req, '\n')); err != nil {
				a.err = fmt.Errorf("sending job: %w", err)
			}
			continue
		case expectReady:
			a.err = fmt.Errorf("worker: expected %s heartbeat, got %q", ReadyMarker, line)
			continue
		case !sink.IsRecord(line):
			// A control line ends the stream: #done, or the worker's #error.
			if doneN, doneSum, a.done = sink.ParseDoneMarker(line); !a.done {
				a.err = fmt.Errorf("worker: %s", line)
			}
		}
		if a.done || a.err != nil {
			break
		}
		a.err = logLine(line) // a line of the replayed prefix
	}
	streamSp.SetAttr("lines", strconv.Itoa(seen))
	if seen >= prefix {
		st.pushed, st.sum = lg.Records(), lg.Sum()
	}
	switch {
	case a.err != nil:
	case wk.sc.Err() != nil:
		a.err = wk.sc.Err()
	case !a.done:
		a.err = fmt.Errorf("worker stream ended without completion marker")
	case seen < prefix:
		a.err = fmt.Errorf("retried shard %d streamed %d lines, fewer than the %d its dispatch had to replay — determinism violation, %w", shard, seen, prefix, errFatal)
	case doneN != seen || doneSum != hex.EncodeToString(at.Sum()):
		a.err = fmt.Errorf("completion marker mismatch: worker declared %d records (%s), coordinator saw %d (%s)",
			doneN, doneSum, seen, hex.EncodeToString(at.Sum()))
	default:
		// The checkpoint's marker is the log's own, over the whole merged
		// stream (a suffix dispatch's worker declared only the suffix), so
		// every checkpoint self-validates however it was assembled.
		a.err = lg.Seal()
	}
}

// ValidateRecordsFileSum is sink.ValidateLog under the name the
// benchmark module calls.
func ValidateRecordsFileSum(path string) (records int, dataBytes int64, sum string, ok bool) {
	return sink.ValidateLog(path)
}
