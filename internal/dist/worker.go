package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"

	"repro/internal/dist/fault"
	"repro/internal/experiments/exp"
	"repro/internal/experiments/runner"
	"repro/internal/obs"
	"repro/internal/scenario/sink"
)

// The stdio worker protocol. A worker is long-lived: one `meshopt work`
// process serves any number of shard requests over its lifetime, which
// amortizes per-process startup and lets package-level caches (topology
// construction, fig10's shared probe phase) warm once per worker instead
// of once per attempt.
//
// On startup — and again after completing each request — the worker
// writes the idle heartbeat line
//
//	#ready
//
// to stdout, telling the coordinator it may dispatch. The coordinator
// then writes one request line to stdin; the worker streams that shard's
// record lines to stdout — plain JSONL, byte-identical to a
// `meshopt fig -shard i/k` run — terminated by exactly one control line:
//
//	#done records=<n> sha256=<hex>     success: n record lines whose
//	                                   bytes (newlines included) hash
//	                                   to the given SHA-256
//	#error <message>                   failure (the stream before it is
//	                                   a valid, verifiable prefix)
//
// After #done the worker writes #ready and waits for the next request;
// EOF on stdin is the clean shutdown signal. Record lines are flushed
// per record, so the coordinator's merge frontier (and its stall
// detector, which drives work stealing) observes progress live.
//
// Control lines start with '#', which no record line can (records are
// JSON objects), so the framing never needs escaping. A stream that
// ends without a control line means the worker died; the coordinator
// treats it like #error. Per-attempt deadlines are enforced on the
// coordinator side by killing the worker process — a wedged worker is
// indistinguishable from a dead one, and both are retried the same way.

// workRequest is the one line the coordinator sends per dispatch.
type workRequest struct {
	Job   Job       `json:"job"`
	Shard exp.Shard `json:"shard"`
	// Attempt is the 1-based dispatch ordinal for this shard, carried so
	// fault schedules (x<attempts> limits, seed-derived cut points) see
	// the same attempt numbering the coordinator does.
	Attempt int `json:"attempt,omitempty"`
	// FromCell, when positive, restricts the shard to cells with
	// Index >= FromCell — the steal suffix-dispatch path: a thief
	// resumes a stolen shard at its merge frontier instead of
	// re-streaming the whole residue class from cell 0.
	FromCell int `json:"from_cell,omitempty"`
}

// ReadyMarker is the idle heartbeat a worker emits on startup and after
// every completed request: the coordinator's dispatch handshake.
const ReadyMarker = "#ready"

const errorPrefix = "#error "

// shardSink streams records as live JSONL — flushed per record so the
// coordinator observes progress — applying any armed fault injector at
// each record boundary.
type shardSink struct {
	jsonl *sink.JSONL
	tally *sink.Tally // what has been streamed so far
	inj   *fault.Injector
}

func (s *shardSink) Write(rec sink.Record) error {
	if err := s.inj.BeforeRecord(s.tally.Records()); err != nil {
		// Die like a killed process would: the stream is cut at a record
		// boundary (nothing is buffered), no marker.
		return err
	}
	return s.jsonl.Write(rec)
}

func (s *shardSink) Close() error { return s.jsonl.Close() }

// corruptWriter flips the first byte of scheduled record lines on their
// way out — after hashing, so the stream's declared hash stays clean and
// the receiver must catch the damage (a flipped first byte breaks JSON
// decoding, which the coordinator treats as a failed attempt; the
// corrupted line is never merged or checkpointed).
type corruptWriter struct {
	w    io.Writer
	inj  *fault.Injector
	line int
	bol  bool // next byte starts a line
}

func (c *corruptWriter) Write(p []byte) (int, error) {
	buf := p
	copied := false
	for i := range p {
		if c.bol {
			if c.inj.Corrupts(c.line) {
				if !copied {
					buf = append([]byte(nil), p...)
					copied = true
				}
				buf[i] ^= 0x01
			}
			c.bol = false
		}
		if p[i] == '\n' {
			c.line++
			c.bol = true
		}
	}
	if _, err := c.w.Write(buf); err != nil {
		return 0, err
	}
	return len(p), nil
}

// ServeWork runs the worker side of the stdio protocol on (in, out),
// serving shard requests until in reaches EOF. sched is the fault
// schedule (nil injects nothing); closing release unblocks any hanging
// injected fault, standing in for the process kill a subprocess worker
// would receive. The logger records request received / complete events
// with job/shard/attempt/cell fields and must write somewhere other than
// out — protocol stream and log stream are strictly separate. Nil
// discards.
func ServeWork(in io.Reader, out io.Writer, sched *fault.Schedule, release <-chan struct{}, logger *slog.Logger) error {
	if logger == nil {
		logger = obs.Discard()
	}
	br := bufio.NewReader(in)
	if _, err := fmt.Fprintln(out, ReadyMarker); err != nil {
		return fmt.Errorf("dist: work: writing ready: %w", err)
	}
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) == 0 {
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil // clean shutdown: coordinator closed stdin
				}
				return fmt.Errorf("dist: work: reading request: %w", err)
			}
			continue
		}
		var req workRequest
		if err := json.Unmarshal(line, &req); err != nil {
			return fmt.Errorf("dist: work: bad request: %w", err)
		}
		logger.Info("shard request",
			"experiment", req.Job.Experiment, "seed", req.Job.Seed,
			"shard", req.Shard.Index, "shards", req.Shard.Count,
			"attempt", req.Attempt, "from_cell", req.FromCell)
		var pe *runner.PanicError
		switch err := serveShard(req, out, sched, release); {
		case errors.As(err, &pe):
			// A panicking cell fails this request, not the worker: the
			// #error answer is out, so stay available for the next one.
			logger.Error("cell panicked",
				"shard", req.Shard.Index, "shards", req.Shard.Count, "attempt", req.Attempt,
				"err", err, "stack", string(pe.Stack))
		case err != nil:
			// Injected kills and I/O failures end the worker like a
			// crash would: the coordinator respawns a fresh process.
			logger.Error("shard request failed",
				"shard", req.Shard.Index, "shards", req.Shard.Count, "attempt", req.Attempt, "err", err)
			return err
		default:
			logger.Info("shard request complete", "shard", req.Shard.Index, "shards", req.Shard.Count)
		}
		if _, err := fmt.Fprintln(out, ReadyMarker); err != nil {
			return fmt.Errorf("dist: work: writing ready: %w", err)
		}
	}
}

func serveShard(req workRequest, out io.Writer, sched *fault.Schedule, release <-chan struct{}) error {
	fail := func(err error) error {
		// One control line, whatever the message holds.
		fmt.Fprintf(out, "%s%s\n", errorPrefix, strings.ReplaceAll(err.Error(), "\n", " "))
		return err
	}
	e, sc, err := req.Job.Resolve()
	if err != nil {
		return fail(err)
	}
	if req.Shard.Count != req.Job.Shards || !req.Shard.Enabled() {
		return fail(fmt.Errorf("dist: work: shard %s does not match job shard count %d", req.Shard, req.Job.Shards))
	}
	attempt := req.Attempt
	if attempt < 1 {
		attempt = 1
	}
	inj := sched.For(req.Shard.Index, attempt, release)

	tally := sink.NewTally()
	var lineW io.Writer = out
	if inj != nil {
		lineW = &corruptWriter{w: out, inj: inj, bol: true}
	}
	// The tally comes first so it always sees the clean bytes; corruption
	// (if scheduled) happens on the transport copy only.
	snk := &shardSink{jsonl: sink.NewLiveJSONL(io.MultiWriter(tally, lineW)), tally: tally, inj: inj}
	_, runErr := exp.Run(e, req.Job.Seed, sc, exp.Options{Sink: snk, Shard: req.Shard, FromCell: req.FromCell})
	if runErr == nil {
		runErr = snk.Close()
	}
	if errors.Is(runErr, fault.ErrInjected) {
		// A simulated kill: the stream is already cut; no marker at all.
		return runErr
	}
	if runErr != nil {
		return fail(runErr)
	}
	_, err = fmt.Fprintf(out, "%s\n", tally.Marker())
	return err
}
