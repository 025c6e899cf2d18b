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
// work per cell, so divergence stays small in practice). It holds the
// lines' bytes, not decoded records: Push checks a line in full and
// reads only its cell, and a record is decoded once, at emit time, and
// only to feed the reduction.
//
// Merger is not safe for concurrent use; the coordinator calls it from
// its one loop goroutine.
type Merger struct {
	out       *bufio.Writer
	k         int
	e         Experiment
	multi     bool // e's cells may emit several records
	queues    []lineQueue
	last      []int // last cell pushed per shard, -1 before the first
	closed    []bool
	next      int // frontier: first cell not yet fully emitted
	nEmitted  int // records emitted for the frontier cell
	autoFlush bool
	red       *Reduction // nil without an experiment
	dec       sink.Decoder
}

// lineQueue holds one shard's lines that wait for the frontier, back to
// back in one buffer, so queueing a line costs a copy and no allocation
// once the buffer has grown to the shards' divergence.
type lineQueue struct {
	buf   []byte
	lines []queuedLine
	head  int // first line not yet emitted
	off   int // its offset in buf
}

type queuedLine struct{ cell, len int }

func (q *lineQueue) push(cell int, line []byte) {
	switch {
	case q.head == len(q.lines):
		q.buf, q.lines, q.head, q.off = q.buf[:0], q.lines[:0], 0, 0
	case q.off >= len(q.buf)-q.off: // more emitted than waiting: compact
		q.buf = q.buf[:copy(q.buf, q.buf[q.off:])]
		q.lines = q.lines[:copy(q.lines, q.lines[q.head:])]
		q.head, q.off = 0, 0
	}
	q.buf = append(q.buf, line...)
	q.lines = append(q.lines, queuedLine{cell, len(line)})
}

// waiting is the number of queued lines.
func (q *lineQueue) waiting() int { return len(q.lines) - q.head }

// peek returns the oldest queued line and its cell. The line's bytes are
// valid until the next push.
func (q *lineQueue) peek() (cell int, line []byte) {
	l := q.lines[q.head]
	return l.cell, q.buf[q.off : q.off+l.len]
}

func (q *lineQueue) pop() {
	q.off += q.lines[q.head].len
	q.head++
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
		queues: make([]lineQueue, shards),
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

// Push hands the merger shard's next record line. The whole line is
// checked (sink.Cell), so a malformed line is refused here even when its
// cell is far ahead of the frontier; its cell is validated against the
// shard's residue class and stream order, and the line is buffered until
// the frontier reaches its cell. Any records the push unblocks are
// emitted before Push returns.
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
	cell, err := sink.Cell(line)
	if err != nil {
		return fmt.Errorf("exp: merger: shard %d: %w", shard, err)
	}
	switch {
	case cell < 0:
		return fmt.Errorf("exp: merger: shard %d: negative cell %d", shard, cell)
	case cell%m.k != shard:
		return fmt.Errorf("exp: merger: shard %d produced cell %d (≡ %d mod %d) — wrong residue class",
			shard, cell, cell%m.k, m.k)
	case cell < m.last[shard]:
		return fmt.Errorf("exp: merger: shard %d: cell %d after cell %d — stream out of order",
			shard, cell, m.last[shard])
	case cell == m.last[shard] && !m.multi && m.e != nil:
		return fmt.Errorf("exp: merger: shard %d: cell %d repeated — %s cells emit exactly one record",
			shard, cell, m.e.Name())
	}
	m.queues[shard].push(cell, line) // copied: callers reuse their scan buffer
	m.last[shard] = cell
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
		q := &m.queues[j]
		if q.waiting() == 0 {
			if m.closed[j] && m.nEmitted > 0 {
				m.next++
				m.nEmitted = 0
				continue
			}
			return nil // waiting on the frontier shard (or done)
		}
		cell, line := q.peek()
		if cell == m.next {
			if err := m.emit(line); err != nil {
				return err
			}
			q.pop()
			m.nEmitted++
			continue
		}
		// cell > m.next (same residue class, stream order checked in
		// Push): the frontier cell's block is over.
		if m.nEmitted == 0 {
			return fmt.Errorf("exp: merger: shard %d skipped cell %d (next record is cell %d) — truncated shard stream?",
				j, m.next, cell)
		}
		m.next++
		m.nEmitted = 0
	}
}

// emit writes a line and feeds its record, decoded here and only here,
// to the reduction.
func (m *Merger) emit(line []byte) error {
	if _, err := m.out.Write(line); err != nil {
		return err
	}
	if err := m.out.WriteByte('\n'); err != nil {
		return err
	}
	if m.red == nil {
		return nil
	}
	rec, err := m.dec.Decode(line)
	if err != nil {
		return err
	}
	m.red.Feed(rec)
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
	for j := range m.queues {
		if n := m.queues[j].waiting(); n > 0 {
			m.Abort()
			return nil, fmt.Errorf("exp: merger: shard %d holds %d records beyond cell %d (cells run past the enumeration?)",
				j, n, expectedCells-1)
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
