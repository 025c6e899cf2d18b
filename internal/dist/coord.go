package dist

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
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
	// Backoff is the base retry delay (default 200ms); attempt n waits
	// n×Backoff, capped at BackoffCap.
	Backoff time.Duration
	// BackoffCap caps the retry delay; 0 means 5×Backoff.
	BackoffCap time.Duration
	// Jitter randomizes each retry delay downward by up to this
	// fraction (0..1), so a pool of shards that failed together does
	// not retry in lockstep. The jitter is a deterministic hash of
	// (job seed, shard, attempt): reproducible for a given job, spread
	// across shards.
	Jitter float64
	// AttemptTimeout bounds one shard dispatch; 0 means no bound. Set
	// it for remote pools where a wedged transport would otherwise hold
	// its slot forever (the hang is then killed and retried like any
	// other worker failure).
	AttemptTimeout time.Duration
	// StealAfter enables work stealing: when the merge frontier has not
	// advanced for this long and a worker slot is free, the attempt
	// serving the frontier's shard is killed and the whole residue
	// class re-dispatched. The thief re-streams the class from cell 0;
	// the prefix the victim already merged is verified against the
	// running hash and skipped, so a steal can never change the merged
	// bytes. 0 disables stealing.
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
	// Progress, when set, observes merge progress after every record
	// push and shard completion. It is called under the coordinator's
	// merge lock: keep it fast and non-blocking (throttle on the caller
	// side if rendering is expensive).
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

// fatalError marks a failure no retry can fix (a determinism violation:
// a retried worker reproduced different bytes than its predecessor).
type fatalError struct{ error }

func (e fatalError) Unwrap() error { return e.error }

// errStolen is the cancellation cause the steal monitor injects into a
// stalled attempt; the dispatch loop re-dispatches immediately (no
// backoff) instead of counting it as a failed attempt.
var errStolen = errors.New("dist: attempt stolen (merge frontier stalled)")

// retryDelay is the bounded, jittered retry schedule: attempt n waits
// n×base capped at cap, shortened by up to jitter×delay using a
// deterministic hash of (seed, shard, attempt) — reproducible, but
// decorrelated across shards.
func retryDelay(base, cap time.Duration, jitter float64, seed int64, shard, attempt int) time.Duration {
	if cap <= 0 {
		cap = 5 * base
	}
	d := time.Duration(attempt) * base
	if d > cap {
		d = cap
	}
	if jitter > 0 {
		if jitter > 1 {
			jitter = 1
		}
		u := float64(fault.Mix64(uint64(seed), uint64(shard), uint64(attempt))>>11) / (1 << 53)
		d = time.Duration(float64(d) * (1 - jitter*u))
	}
	return d
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
	var pending []int
	for i := 0; i < job.Shards; i++ {
		if n, _, _, ok := sink.ValidateLog(shardPath(dir, i)); ok {
			o.Logger.Info("reusing checkpoint", "shard", i, "shards", job.Shards, "records", n)
			rep.Reused = append(rep.Reused, i)
		} else {
			pending = append(pending, i)
		}
	}
	rep.Ran = append(rep.Ran, pending...)

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
	merger := exp.NewMerger(mergedOut, job.Shards, e)
	if o.Stream != nil {
		merger.AutoFlush(true)
	}
	r := &run{
		job:        job,
		dir:        dir,
		o:          o,
		sp:         span.FromContext(ctx),
		cells:      cells,
		merger:     merger,
		states:     make([]*shardState, job.Shards),
		replays:    make(map[int]*replayCursor),
		cancels:    make([]context.CancelCauseFunc, job.Shards),
		shardsDone: len(rep.Reused),
		pool: &workerPool{
			ctx:     ctx,
			spawner: o.Spawner,
			log:     o.Logger,
			slots:   make([]*poolWorker, o.Slots),
		},
	}
	for i := range r.states {
		r.states[i] = newShardState()
	}
	defer r.merger.Abort() // no-op after a successful Finish
	defer r.closeReplays()
	defer r.pool.close()

	// Checkpointed shards replay lazily: each file is opened as a
	// cursor and read only as the merge frontier demands its cells, so
	// a resume keeps checkpointed data on disk instead of buffering
	// whole shards in the merger's queues.
	for _, i := range rep.Reused {
		f, err := os.Open(shardPath(dir, i))
		if err != nil {
			return nil, err
		}
		r.replays[i] = &replayCursor{f: f, sc: sink.NewLineScanner(f)}
	}
	r.mu.Lock()
	err = r.pump()
	r.report()
	r.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("dist: replaying checkpointed shards: %w", err)
	}

	// Dispatch the missing shards over the worker slots; each shard's
	// goroutine owns all of that shard's attempts, so a shard's stream
	// state is never touched concurrently.
	slots := make(chan int, o.Slots)
	for s := 0; s < o.Slots; s++ {
		slots <- s
	}
	if o.StealAfter > 0 && len(pending) > 0 {
		stopSteal := make(chan struct{})
		defer close(stopSteal)
		go r.stealLoop(stopSteal, slots)
	}
	var (
		wg       sync.WaitGroup
		failMu   sync.Mutex
		failures []error
	)
	fail := func(err error) {
		failMu.Lock()
		failures = append(failures, err)
		failMu.Unlock()
	}
	for _, shard := range pending {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			var lastErr error
			attempt, steals := 1, 0
			fromCell := 0
			for attempt <= o.MaxAttempts {
				var slot int
				select {
				case slot = <-slots:
				case <-ctx.Done():
					fail(fmt.Errorf("shard %d/%d: %w", shard, job.Shards, ctx.Err()))
					return
				}
				rep.Attempts[shard]++
				err := r.attempt(ctx, shard, slot, rep.Attempts[shard], fromCell)
				slots <- slot
				if err == nil {
					return
				}
				lastErr = err
				fromCell = 0
				if errors.Is(err, errStolen) && steals < o.MaxAttempts {
					// A steal is not a worker failure: re-dispatch the
					// residue class immediately, without burning an
					// attempt or backing off. Bounded so a shard that
					// keeps stalling cannot steal forever. The thief is
					// suffix-dispatched from the victim's merge frontier
					// (this goroutine owns the shard's state between
					// attempts, so the read is race-free); the frontier
					// cell's merged lines are verified and skipped, the
					// earlier cells come from the checkpoint part file.
					steals++
					rep.Steals[shard]++
					metSteals.Inc()
					if st := r.states[shard]; st.curCell > 0 {
						fromCell = st.curCell
					}
					o.Logger.Info("stalled attempt killed, re-dispatching",
						"shard", shard, "shards", job.Shards, "from_cell", fromCell, "steal", steals)
					continue
				}
				o.Logger.Warn("attempt failed",
					"shard", shard, "shards", job.Shards, "attempt", attempt, "err", err)
				var fe fatalError
				if ctx.Err() != nil || errors.As(err, &fe) {
					break
				}
				attempt++
				metRetries.Inc()
				if attempt <= o.MaxAttempts {
					d := retryDelay(o.Backoff, o.BackoffCap, o.Jitter, job.Seed, shard, attempt-1)
					metBackoffWaits.Inc()
					metBackoffSeconds.Add(d.Seconds())
					o.Logger.Debug("retry backoff", "shard", shard, "attempt", attempt, "delay", d)
					bsp := r.sp.Child("backoff",
						span.Int("shard", shard), span.Int("attempt", attempt), span.Str("delay", d.String()))
					select {
					case <-time.After(d):
					case <-ctx.Done():
					}
					bsp.End()
				}
			}
			fail(fmt.Errorf("shard %d/%d failed after %d attempt(s): %w", shard, job.Shards, rep.Attempts[shard], lastErr))
		}(shard)
	}
	wg.Wait()
	rep.Spawns = r.pool.spawnCount()

	if len(failures) > 0 {
		return rep, fmt.Errorf("dist: run incomplete (completed shards stay checkpointed in %s; rerun with the same directory to resume): %w",
			dir, errors.Join(failures...))
	}

	reduceSpan := r.sp.Child("reduce")
	res, err := r.finishMerge(cells)
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

// run is the shared state of one coordinator invocation.
type run struct {
	job        Job
	dir        string
	o          Options
	sp         *span.Span // trace parent from Run's ctx; nil when untraced
	cells      int
	mu         sync.Mutex // serializes merger + replay access across shard goroutines
	merger     *exp.Merger
	states     []*shardState
	replays    map[int]*replayCursor
	shardsDone int // checkpointed shards (reused + completed this run)
	pool       *workerPool

	cancelMu sync.Mutex
	cancels  []context.CancelCauseFunc // live attempt cancel per shard (steal hook)
}

// poolWorker is one live worker bound to a slot, with its persistent
// line scanner (the scanner owns read buffering, so it must survive
// across the requests the worker serves).
type poolWorker struct {
	w  *Worker
	sc *bufio.Scanner
}

// workerPool keeps one long-lived worker per slot, spawned lazily and
// kept across dispatches. Any failure retires the slot's worker (kill +
// reap); the next dispatch on that slot spawns a fresh one.
type workerPool struct {
	ctx     context.Context
	spawner Spawner
	log     *slog.Logger
	mu      sync.Mutex
	slots   []*poolWorker
	spawns  int
}

// acquire returns the slot's live worker, spawning one if the slot is
// empty; spawned reports whether this call spawned (so the dispatch can
// attribute the spawn cost to a trace span). A freshly spawned worker's
// first output line is its #ready heartbeat; a pooled worker's stream is
// positioned just before the #ready it wrote after its previous request
// — either way the next line the caller reads is #ready.
func (p *workerPool) acquire(slot int) (pw *poolWorker, spawned bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pw := p.slots[slot]; pw != nil {
		return pw, false, nil
	}
	w, err := p.spawner.Spawn(p.ctx, slot)
	if err != nil {
		return nil, false, err
	}
	p.spawns++
	metSpawns.Inc()
	p.log.Info("spawned worker", "slot", slot, "spawns", p.spawns)
	pw = &poolWorker{w: w, sc: sink.NewLineScanner(w.Out)}
	p.slots[slot] = pw
	return pw, true, nil
}

// retire kills and reaps the slot's worker if it is still pw (idempotent
// per worker generation: watchdogs and error paths may race). It returns
// the reaped worker's exit error, or nil if pw was already retired.
func (p *workerPool) retire(slot int, pw *poolWorker) error {
	p.mu.Lock()
	if p.slots[slot] != pw {
		p.mu.Unlock()
		return nil
	}
	p.slots[slot] = nil
	p.mu.Unlock()
	pw.w.Kill()
	pw.w.In.Close()
	pw.w.Out.Close()
	return pw.w.Wait()
}

// close shuts the pool down: close every live worker's stdin (the clean
// shutdown signal), kill as a backstop, and reap.
func (p *workerPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for slot, pw := range p.slots {
		if pw == nil {
			continue
		}
		p.slots[slot] = nil
		pw.w.In.Close()
		pw.w.Kill()
		pw.w.Out.Close()
		pw.w.Wait()
	}
}

func (p *workerPool) spawnCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spawns
}

// setCancel publishes (or clears) the live attempt's cancel for a shard
// so the steal monitor can kill it.
func (r *run) setCancel(shard int, c context.CancelCauseFunc) {
	r.cancelMu.Lock()
	r.cancels[shard] = c
	r.cancelMu.Unlock()
}

func (r *run) getCancel(shard int) context.CancelCauseFunc {
	r.cancelMu.Lock()
	defer r.cancelMu.Unlock()
	return r.cancels[shard]
}

// liveAttempts counts attempts currently in flight.
func (r *run) liveAttempts() int {
	r.cancelMu.Lock()
	defer r.cancelMu.Unlock()
	n := 0
	for _, c := range r.cancels {
		if c != nil {
			n++
		}
	}
	return n
}

// stealLoop watches the merge frontier; when it has not advanced for
// StealAfter and a worker slot is free, the attempt serving the
// frontier's shard is cancelled with errStolen, which kills its worker
// and triggers an immediate re-dispatch of the residue class.
func (r *run) stealLoop(stop <-chan struct{}, slots chan int) {
	period := r.o.StealAfter / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	last, lastAdvance := -1, time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		r.mu.Lock()
		f := r.merger.Frontier()
		r.mu.Unlock()
		if f != last {
			last, lastAdvance = f, time.Now()
			continue
		}
		if f >= r.cells || time.Since(lastAdvance) < r.o.StealAfter {
			continue
		}
		if len(slots) == 0 && r.liveAttempts() > 1 {
			// No free slot and other shards are using them: a steal
			// would just queue behind healthy work. When the stalled
			// attempt is the only one left, its own slot frees the
			// moment it is killed, so stealing is always productive.
			continue
		}
		shard := f % r.job.Shards
		cancel := r.getCancel(shard)
		if cancel == nil {
			continue // frontier shard not dispatched right now
		}
		metStallSeconds.Add(time.Since(lastAdvance).Seconds())
		// The stall interval is only known in hindsight: backdate it to
		// the frontier's last advance.
		r.sp.ChildAt(lastAdvance, "stall", span.Int("shard", shard), span.Int("cell", f)).End()
		r.o.Logger.Info("frontier stalled, stealing",
			"shard", shard, "shards", r.job.Shards, "cell", f, "stalled_for", r.o.StealAfter)
		cancel(errStolen)
		lastAdvance = time.Now() // give the thief a full stall window
	}
}

// report publishes a progress observation. Called with r.mu held.
func (r *run) report() {
	metFrontier.Set(float64(r.merger.Frontier()))
	if r.o.Progress == nil {
		return
	}
	r.o.Progress(Progress{
		MergedCells: r.merger.Frontier(),
		Cells:       r.cells,
		ShardsDone:  r.shardsDone,
		Shards:      r.job.Shards,
	})
}

// replayCursor reads a checkpointed shard file on demand.
type replayCursor struct {
	f  *os.File
	sc *bufio.Scanner
}

// push forwards a live worker line, then feeds any checkpointed shards
// the frontier advanced into. It returns the cell the line belongs to,
// which the caller's shard state tracks for steal suffix-dispatch.
func (r *run) push(shard int, line []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.merger.Push(shard, line); err != nil {
		return 0, err
	}
	cell := r.merger.Last(shard)
	err := r.pump()
	r.report()
	return cell, err
}

// closeShard marks a live shard complete, then pumps the replays.
func (r *run) closeShard(shard int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shardsDone++
	if err := r.merger.CloseShard(shard); err != nil {
		return err
	}
	err := r.pump()
	r.report()
	return err
}

// pump feeds checkpointed shard files into the merger for as long as
// the frontier cell belongs to one of them: the cursor's next lines are
// exactly the frontier's records, so the merger queues stay near-empty
// for replayed shards. Called with r.mu held.
func (r *run) pump() error {
	for {
		j := r.merger.Frontier() % r.job.Shards
		cur, ok := r.replays[j]
		if !ok {
			return nil // frontier owned by a live (or finished) shard
		}
		if cur.sc.Scan() {
			if err := r.merger.Push(j, cur.sc.Bytes()); err != nil {
				return err
			}
			continue
		}
		err := cur.sc.Err()
		cur.f.Close()
		delete(r.replays, j)
		if err != nil {
			return err
		}
		if err := r.merger.CloseShard(j); err != nil {
			return err
		}
	}
}

func (r *run) closeReplays() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cur := range r.replays {
		cur.f.Close()
	}
	r.replays = nil
}

// shardState tracks how much of a shard's deterministic stream has been
// merged, across that shard's attempts: a retry (or a steal's thief)
// re-produces the same bytes, so its first pushed lines are verified
// against the running hash and skipped instead of re-merged.
//
// Beyond the whole-stream running hash, the state keeps a snapshot of
// where the current (possibly partially merged) cell begins — line
// count, byte offset and hash at that point. A steal's thief is
// suffix-dispatched from that cell: the coordinator resumes the part
// file's verified prefix for the earlier cells and only the frontier
// cell's lines are replayed.
type shardState struct {
	pushed int
	h      hash.Hash // sha256 over the pushed lines ('\n' included)

	curCell        int    // cell of the last pushed line, -1 before the first
	cellStart      int    // pushed-line count where curCell begins
	cellStartBytes int64  // byte offset where curCell begins
	cellStartSum   []byte // h's digest at cellStart
}

func newShardState() *shardState {
	st := &shardState{h: sha256.New(), curCell: -1}
	st.cellStartSum = st.h.Sum(nil)
	return st
}

func shardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard_%d.jsonl", shard))
}

// attempt runs one dispatch for one shard on the slot's long-lived
// worker: consume the worker's #ready heartbeat, send the request,
// stream the shard's records into the checkpoint file and the live
// merger, verify the completion marker, and finalize the checkpoint
// atomically. On success the worker stays pooled for the next dispatch;
// on any failure — including a deadline kill or a steal — it is retired
// and the slot respawns lazily.
//
// fromCell > 0 requests a suffix dispatch (a steal's thief resuming at
// the stolen shard's merge frontier): the worker streams only cells
// with Index >= fromCell, the previous attempt's part file supplies the
// earlier cells verbatim (sink.ResumeLog verifies them against the
// prefix hash before reuse), and only the frontier cell's already-merged
// lines are replayed through the prefix check. If the part file cannot
// be verified the dispatch falls back to a full re-stream, which is
// always correct.
func (r *run) attempt(ctx context.Context, shard, slot, dispatch, fromCell int) error {
	metDispatches.Inc()
	r.o.Logger.Debug("dispatch",
		"shard", shard, "shards", r.job.Shards, "slot", slot, "attempt", dispatch, "from_cell", fromCell)
	dsp := r.sp.Child("dispatch", span.Int("shard", shard), span.Int("slot", slot),
		span.Int("attempt", dispatch), span.Int("from_cell", fromCell))
	defer dsp.End()
	shardCell := metShardCell.With(strconv.Itoa(shard))
	actx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	if r.o.AttemptTimeout > 0 {
		var tcancel context.CancelFunc
		actx, tcancel = context.WithTimeout(actx, r.o.AttemptTimeout)
		defer tcancel()
	}

	spawnAt := time.Now()
	pw, spawned, err := r.pool.acquire(slot)
	if err != nil {
		return err
	}
	if spawned {
		dsp.ChildAt(spawnAt, "spawn").End()
	}
	// The watchdog turns any cancellation — per-attempt deadline, a
	// steal, run cancellation — into a worker kill, which unblocks the
	// read loop below with EOF. Stopped on the success path before the
	// cancel is cleared, so a racing steal cannot kill a worker whose
	// shard already completed.
	stopWatch := context.AfterFunc(actx, func() { r.pool.retire(slot, pw) })
	defer stopWatch()
	r.setCancel(shard, cancel)
	defer r.setCancel(shard, nil)

	st := r.states[shard]
	path := shardPath(r.dir, shard)

	// A suffix dispatch continues the previous attempt's part after the
	// cells before the frontier — if the file still holds those bytes
	// verbatim: the victim may have died before flushing or left a torn
	// tail.
	var lg *sink.Log
	if fromCell > 0 {
		if lg, err = sink.ResumeLog(path, st.cellStartBytes, st.cellStartSum); err != nil {
			r.o.Logger.Warn("part file unusable for suffix dispatch, re-streaming",
				"shard", shard, "shards", r.job.Shards, "from_cell", 0, "err", err)
			fromCell = 0
		}
	}
	if fromCell == 0 {
		if lg, err = sink.CreateLog(path); err != nil {
			r.pool.retire(slot, pw)
			return err
		}
	}
	defer lg.Close()

	req, err := json.Marshal(workRequest{
		Job:      r.job,
		Shard:    exp.Shard{Index: shard, Count: r.job.Shards},
		Attempt:  dispatch,
		FromCell: fromCell,
	})
	if err != nil {
		return err
	}

	// prefix: the already-merged lines this attempt will stream again
	// and must reproduce bit for bit. A full re-stream replays the whole
	// merged prefix; a suffix dispatch replays only the frontier cell's
	// lines (the earlier cells are not re-streamed at all). Either way
	// the log then holds exactly the merged stream, so its running hash
	// must equal the shard's.
	prefix := st.pushed
	if fromCell > 0 {
		prefix -= st.cellStart
	}
	prefixSum := st.h.Sum(nil)
	ah := sha256.New() // hash of every record line this attempt streamed
	// ready.wait covers the gap until the worker's heartbeat is consumed
	// (the spawn cost on a fresh slot, zero-ish on a pooled one); stream
	// then runs from the request write to the end of the attempt, with
	// the prefix replay — a retry's whole merged prefix, or just the
	// frontier cell on a steal's suffix dispatch — as a verify child.
	readySp := dsp.Child("ready.wait")
	var streamSp, verifySp *span.Span
	defer func() { verifySp.End(); streamSp.End(); readySp.End() }()
	var (
		seen        int
		expectReady = true
		done        bool
		doneN       int
		doneSum     string
		workErr     error
	)
	for pw.sc.Scan() {
		line := pw.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if expectReady {
			// The idle heartbeat: present both on a fresh spawn and on
			// a pooled worker (written after its previous request). The
			// request is dispatched only once the heartbeat arrives —
			// the worker is then guaranteed to be blocked reading its
			// stdin, so the write cannot deadlock even over synchronous
			// in-process pipes.
			if string(line) == ReadyMarker {
				expectReady = false
				metHeartbeats.Inc()
				readySp.End()
				streamSp = dsp.Child("stream")
				if prefix > 0 {
					verifySp = streamSp.Child("verify",
						span.Int("lines", prefix), span.Str("suffix", strconv.FormatBool(fromCell > 0)))
				}
				if _, err := pw.w.In.Write(append(req, '\n')); err != nil {
					workErr = fmt.Errorf("sending job: %w", err)
					break
				}
				continue
			}
			workErr = fmt.Errorf("worker: expected %s heartbeat, got %q", ReadyMarker, line)
			break
		}
		if !sink.IsRecord(line) {
			// A control line ends the stream: #done, or the worker's #error.
			if doneN, doneSum, done = sink.ParseDoneMarker(line); !done {
				workErr = fmt.Errorf("worker: %s", line)
			}
			break
		}
		rec := append(line, '\n')
		if _, err := lg.Write(rec); err != nil {
			workErr = err
			break
		}
		ah.Write(rec)
		if seen < prefix {
			// Replaying the prefix a previous attempt merged: verify the
			// retry reproduces it bit for bit, don't re-merge it.
			seen++
			if seen == prefix {
				verifySp.End()
				if !bytes.Equal(lg.Sum(), prefixSum) {
					workErr = fatalError{fmt.Errorf("retried shard %d reproduced different bytes than its merged prefix (%d lines) — determinism violation, not retryable", shard, prefix)}
					break
				}
			}
			continue
		}
		cell, err := r.push(shard, line)
		if err != nil {
			workErr = err
			break
		}
		if cell != st.curCell {
			// First line of a new cell: snapshot the stream position so a
			// future steal can suffix-dispatch from this cell.
			st.cellStart = st.pushed
			st.cellStartBytes = lg.Boundary() - int64(len(rec))
			st.cellStartSum = st.h.Sum(nil)
			st.curCell = cell
			shardCell.Set(float64(cell))
		}
		st.h.Write(rec)
		st.pushed++
		seen++
	}
	if workErr == nil {
		workErr = pw.sc.Err()
	}
	streamSp.SetAttr("lines", strconv.Itoa(seen))

	var attemptErr error
	switch {
	case workErr != nil:
		attemptErr = workErr
	case !done:
		attemptErr = fmt.Errorf("worker stream ended without completion marker")
	case seen < prefix:
		attemptErr = fatalError{fmt.Errorf("retried shard %d streamed %d lines, fewer than the %d its dispatch had to replay — determinism violation, not retryable", shard, seen, prefix)}
	case doneN != seen || doneSum != hex.EncodeToString(ah.Sum(nil)):
		attemptErr = fmt.Errorf("completion marker mismatch: worker declared %d records (%s), coordinator saw %d (%s)",
			doneN, doneSum, seen, hex.EncodeToString(ah.Sum(nil)))
	}
	if attemptErr != nil {
		// The worker may be dead (crash, kill) or healthy-but-unusable
		// (merge error mid-stream): either way its residual stream state
		// is unknown, so retire it and let the slot respawn.
		waitErr := r.pool.retire(slot, pw)
		var fe fatalError
		if errors.As(attemptErr, &fe) {
			r.o.Logger.Error("determinism violation",
				"shard", shard, "shards", r.job.Shards, "attempt", dispatch, "err", attemptErr)
			return attemptErr
		}
		if cause := context.Cause(actx); cause != nil {
			switch {
			case errors.Is(cause, errStolen):
				return fmt.Errorf("shard %d dispatch %d: %w", shard, dispatch, errStolen)
			case errors.Is(cause, context.DeadlineExceeded):
				return fmt.Errorf("attempt deadline (%s) exceeded, worker killed: %w", r.o.AttemptTimeout, cause)
			}
		}
		if !done && waitErr != nil {
			return fmt.Errorf("worker died without completion marker: %w (stream: %v)", waitErr, attemptErr)
		}
		return attemptErr
	}

	// Success: stop the watchdog and clear the steal hook before
	// touching shared completion state; the worker stays pooled.
	stopWatch()
	cancel(nil)

	// The checkpoint's completion marker is the log's own — over the
	// whole merged stream, where a suffix dispatch's worker only declared
	// the suffix — so every checkpoint stays self-validating no matter how
	// its bytes were assembled. On a full dispatch it is byte-identical to
	// the marker the worker sent.
	if err := lg.Seal(); err != nil {
		return err
	}
	if err := r.closeShard(shard); err != nil {
		return fatalError{err}
	}
	r.o.Logger.Info("shard complete", "shard", shard, "shards", r.job.Shards, "records", st.pushed)
	if r.o.onShardDone != nil {
		r.o.onShardDone(shard)
	}
	return nil
}

func (r *run) finishMerge(cells int) (exp.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.pump(); err != nil { // normally a no-op: every close pumps
		return nil, err
	}
	res, err := r.merger.Finish(cells)
	if err == nil {
		r.report()
	}
	return res, err
}

// ValidateRecordsFileSum is sink.ValidateLog under the name the
// benchmark module calls.
func ValidateRecordsFileSum(path string) (records int, dataBytes int64, sum string, ok bool) {
	return sink.ValidateLog(path)
}
