package exp

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/scenario/sink"
)

// Merger is the incremental, residue-aware k-way merge behind the shard
// coordinator: shard i of k owns the cells whose index ≡ i (mod k), and
// each shard's record lines arrive — in that shard's own ascending cell
// order — through Push while other shards are still producing. Records
// are written to out and fed to the experiment's reduction strictly in
// global cell order as soon as the frontier cell's records are
// available, so a merged run streams results while late shards are
// still running.
//
// Lines are written verbatim, so the merged bytes are identical to what
// an unsharded run would have streamed — the same byte-identity contract
// Merge gives whole shard files. Lines that start with '#' (the
// coordinator's shard-file completion markers) and blank lines are
// ignored, which lets checkpointed shard files be replayed through Push
// unfiltered.
//
// A fast shard running ahead of the frontier is buffered in memory until
// the frontier reaches its cells; the buffer is bounded by how far
// shards diverge, not by the sweep (shards of one experiment do equal
// work per cell, so divergence stays small in practice).
//
// Merger is not safe for concurrent use; the coordinator calls it from
// its one loop goroutine.
type Merger struct {
	out       *bufio.Writer
	k         int
	e         Experiment
	multi     bool // e's cells may emit several records
	queues    [][]mergeLine
	last      []int // last cell pushed per shard, -1 before the first
	closed    []bool
	next      int // frontier: first cell not yet fully emitted
	nEmitted  int // records emitted for the frontier cell
	autoFlush bool
	red       *Reduction // nil without an experiment
}

type mergeLine struct {
	cell int
	line []byte
	rec  sink.Record
}

// NewMerger returns a Merger for a k-shard run of experiment e. The
// reduction starts immediately when e is non-nil (a nil e merges and
// validates the stream without reducing — Finish then returns a nil
// Result).
func NewMerger(out io.Writer, shards int, e Experiment) *Merger {
	if out == nil {
		out = io.Discard
	}
	m := &Merger{
		out:    bufio.NewWriter(out),
		k:      shards,
		e:      e,
		queues: make([][]mergeLine, shards),
		last:   make([]int, shards),
		closed: make([]bool, shards),
	}
	for i := range m.last {
		m.last[i] = -1
	}
	if e != nil {
		_, m.multi = e.(RecordStreamer)
		m.red = NewReduction(e)
	}
	return m
}

// AutoFlush makes the merger flush its output after every drain that
// emitted records, so a consumer tailing the merged stream live (e.g. a
// serving layer's record endpoint) sees cells promptly instead of
// waiting for the final flush. Off by default: batch runs want the
// plain buffered write path.
func (m *Merger) AutoFlush(on bool) { m.autoFlush = on }

// Push hands the merger shard's next record line. The line is decoded,
// validated against the shard's residue class and stream order, and
// buffered until the frontier reaches its cell; any records the push
// unblocks are emitted before Push returns.
func (m *Merger) Push(shard int, line []byte) error {
	if shard < 0 || shard >= m.k {
		return fmt.Errorf("exp: merger: shard %d out of range 0..%d", shard, m.k-1)
	}
	if m.closed[shard] {
		return fmt.Errorf("exp: merger: push on closed shard %d", shard)
	}
	if !sink.IsRecord(line) {
		return nil
	}
	rec, err := sink.DecodeJSONL(line)
	if err != nil {
		return fmt.Errorf("exp: merger: shard %d: %w", shard, err)
	}
	switch {
	case rec.Cell < 0:
		return fmt.Errorf("exp: merger: shard %d: negative cell %d", shard, rec.Cell)
	case rec.Cell%m.k != shard:
		return fmt.Errorf("exp: merger: shard %d produced cell %d (≡ %d mod %d) — wrong residue class",
			shard, rec.Cell, rec.Cell%m.k, m.k)
	case rec.Cell < m.last[shard]:
		return fmt.Errorf("exp: merger: shard %d: cell %d after cell %d — stream out of order",
			shard, rec.Cell, m.last[shard])
	case rec.Cell == m.last[shard] && !m.multi && m.e != nil:
		return fmt.Errorf("exp: merger: shard %d: cell %d repeated — %s cells emit exactly one record",
			shard, rec.Cell, m.e.Name())
	}
	m.queues[shard] = append(m.queues[shard], mergeLine{
		cell: rec.Cell,
		line: append([]byte(nil), line...), // callers reuse their scan buffer
		rec:  rec,
	})
	m.last[shard] = rec.Cell
	return m.drain()
}

// CloseShard marks a shard's stream complete, letting the frontier
// advance past the shard's final cell.
func (m *Merger) CloseShard(shard int) error {
	if shard < 0 || shard >= m.k {
		return fmt.Errorf("exp: merger: shard %d out of range 0..%d", shard, m.k-1)
	}
	m.closed[shard] = true
	return m.drain()
}

// drain emits records while the frontier cell's records are available,
// then honours AutoFlush (an empty-buffer Flush is a no-op, so flushing
// per drain costs nothing when no records moved).
func (m *Merger) drain() error {
	err := m.drainQueues()
	if m.autoFlush {
		if ferr := m.out.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// drainQueues emits records while the frontier cell's records are
// available. The frontier advances past a cell once its owning shard
// produces a later cell or closes its stream — which is also why every
// cell must emit at least one record: a silent cell would stall here as
// a gap.
func (m *Merger) drainQueues() error {
	for {
		j := m.next % m.k
		q := m.queues[j]
		if len(q) == 0 {
			if m.closed[j] && m.nEmitted > 0 {
				m.next++
				m.nEmitted = 0
				continue
			}
			return nil // waiting on the frontier shard (or done)
		}
		head := q[0]
		if head.cell == m.next {
			if err := m.emit(head); err != nil {
				return err
			}
			m.queues[j] = q[1:]
			m.nEmitted++
			continue
		}
		// head.cell > m.next (same residue class, stream order checked
		// in Push): the frontier cell's block is over.
		if m.nEmitted == 0 {
			return fmt.Errorf("exp: merger: shard %d skipped cell %d (next record is cell %d) — truncated shard stream?",
				j, m.next, head.cell)
		}
		m.next++
		m.nEmitted = 0
	}
}

func (m *Merger) emit(l mergeLine) error {
	if _, err := m.out.Write(l.line); err != nil {
		return err
	}
	if err := m.out.WriteByte('\n'); err != nil {
		return err
	}
	if m.red != nil {
		m.red.Feed(l.rec)
	}
	return nil
}

// Finish closes every shard, validates that exactly expectedCells cells
// were merged, flushes the output and returns the reduction. A shortfall
// names the first missing cell and its shard — with the coordinator
// validating every shard's completion marker before Finish, it indicates
// a worker that lied about completing.
func (m *Merger) Finish(expectedCells int) (Result, error) {
	for j := range m.closed {
		m.closed[j] = true
	}
	if err := m.drain(); err != nil {
		m.Abort()
		return nil, err
	}
	if m.next != expectedCells {
		m.Abort()
		return nil, fmt.Errorf("exp: merger: merged %d of %d cells; first missing cell %d (shard %d of %d)",
			m.next, expectedCells, m.next, m.next%m.k, m.k)
	}
	for j, q := range m.queues {
		if len(q) > 0 {
			m.Abort()
			return nil, fmt.Errorf("exp: merger: shard %d holds %d records beyond cell %d (cells run past the enumeration?)",
				j, len(q), expectedCells-1)
		}
	}
	if err := m.out.Flush(); err != nil {
		m.Abort()
		return nil, err
	}
	return m.stopReduction()
}

// Abort tears the merger down without validation: the reduction
// goroutine is stopped and its partial result discarded. Safe to call
// after Finish (it is then a no-op); the coordinator defers it so a
// failed run leaks nothing.
func (m *Merger) Abort() {
	m.stopReduction()
	m.out.Flush()
}

func (m *Merger) stopReduction() (Result, error) {
	if m.red == nil {
		return nil, nil
	}
	return m.red.Finish()
}

// Frontier reports merge progress: the first cell not yet fully merged.
func (m *Merger) Frontier() int { return m.next }

// Last reports the highest cell a shard has pushed so far, -1 before
// its first record. The coordinator uses it to locate a stolen shard's
// merge frontier when suffix-dispatching the re-run.
func (m *Merger) Last(shard int) int { return m.last[shard] }
