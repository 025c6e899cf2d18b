package exp

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/scenario/sink"
)

// CellRange is an inclusive range of cell indices.
type CellRange struct{ First, Last int }

func (r CellRange) String() string {
	if r.First == r.Last {
		return fmt.Sprintf("%d", r.First)
	}
	return fmt.Sprintf("%d-%d", r.First, r.Last)
}

// GapError reports a merge whose combined inputs do not cover the cell
// enumeration: Missing lists the absent cell ranges and Cells is the
// enumeration size the inputs implied (one past the highest cell seen).
// When the missing set is exactly a union of residue classes — the
// signature of whole shard streams left out of the merge — the message
// names them, so the fix ("pass shard i/k too") is immediate.
type GapError struct {
	Missing []CellRange
	Cells   int
}

func (e *GapError) Error() string {
	var ranges []string
	n := 0
	for _, r := range e.Missing {
		ranges = append(ranges, r.String())
		n += r.Last - r.First + 1
	}
	msg := fmt.Sprintf("exp: merge: missing %d of %d cells (%s)", n, e.Cells, strings.Join(ranges, ", "))
	if mod, classes, ok := e.residueClasses(); ok {
		var cs []string
		for _, c := range classes {
			cs = append(cs, fmt.Sprintf("%d/%d", c, mod))
		}
		msg += fmt.Sprintf(" — exactly the residue class(es) %s: were those shard streams passed?", strings.Join(cs, ", "))
	}
	return msg
}

// residueClasses reports the smallest modulus under which the missing
// set is exactly a union of full residue classes of [0, Cells).
func (e *GapError) residueClasses() (mod int, classes []int, ok bool) {
	if e.Cells < 2 {
		return 0, nil, false
	}
	missing := make([]bool, e.Cells)
	for _, r := range e.Missing {
		for c := r.First; c <= r.Last && c < e.Cells; c++ {
			missing[c] = true
		}
	}
	maxMod := e.Cells
	if maxMod > 64 { // realistic shard counts; keeps the scan O(64·N)
		maxMod = 64
	}
	for m := 2; m <= maxMod; m++ {
		inClass := make([]bool, m)
		for c, miss := range missing {
			if miss {
				inClass[c%m] = true
			}
		}
		match, all := true, true
		for c, miss := range missing {
			if miss != inClass[c%m] {
				match = false
				break
			}
		}
		for _, in := range inClass {
			all = all && in
		}
		if match && !all { // every class missing would explain nothing
			for r, in := range inClass {
				if in {
					classes = append(classes, r)
				}
			}
			return m, classes, true
		}
	}
	return 0, nil, false
}

// Merge recombines shard record streams (JSONL, as written by sharded
// Run invocations) into the unsharded stream and its reduction.
//
// Lines are k-way merged by ascending cell index and written to out
// *verbatim*, so the merged bytes are identical to what an unsharded run
// would have streamed — the byte-identity contract holds across process
// boundaries without re-serialization. Lines starting with '#' (the
// coordinator's shard-file completion markers) and blank lines are
// skipped, so checkpointed shard files from a `meshopt coord` run
// directory merge as-is. Every line is checked in full, but ordering
// reads only its cell (sink.Cell); a line is decoded only to feed the
// Reduce of the experiment registered under the stream's scenario name.
// The returned Result is nil when the name resolves to no registered
// experiment (e.g. a declarative scenario stream).
//
// Merge validates the merged cell sequence. Cells must cover 0..max
// without gaps — a repeated cell is only legal when the stream's
// experiment emits several records per cell (RecordStreamer) or is
// unregistered. On a gap, Merge stops writing and reducing (out keeps
// its valid gapless prefix), keeps scanning to map the full extent of
// the damage, and returns a *GapError naming every missing cell range
// and, when they line up, the missing residue classes. Tail truncation
// (the final shard absent entirely) is undetectable here — only the
// coordinator, which enumerates the cells, can catch it.
func Merge(ins []io.Reader, out io.Writer) (Result, error) {
	if out == nil {
		out = io.Discard
	}
	type cursor struct {
		sc   *bufio.Scanner
		line []byte // valid until the cursor's next Scan
		cell int
		ok   bool
	}
	advance := func(c *cursor) error {
		for c.sc.Scan() {
			line := c.sc.Bytes()
			if !sink.IsRecord(line) {
				continue
			}
			cell, err := sink.Cell(line)
			if err != nil {
				return err
			}
			c.line, c.cell, c.ok = line, cell, true
			return nil
		}
		c.ok = false
		return c.sc.Err()
	}

	cursors := make([]*cursor, len(ins))
	for i, in := range ins {
		cursors[i] = &cursor{sc: sink.NewLineScanner(in)}
		if err := advance(cursors[i]); err != nil {
			return nil, fmt.Errorf("exp: merge: shard %d: %w", i, err)
		}
	}

	bw := bufio.NewWriter(out)
	var (
		dec      sink.Decoder
		red      *Reduction
		started  bool
		multi    bool // the stream's experiment emits several records per cell
		curCell  = -1 // cell currently being copied
		curOwner = -1 // cursor the current cell's records come from
		nextCell int  // first cell not yet seen
		missing  []CellRange
	)
	finish := func() (Result, error) {
		if red == nil {
			return nil, nil
		}
		return red.Finish()
	}
	defer finish()

	for {
		// Pick the cursor holding the smallest cell index (ties break to
		// the earliest shard argument — disjoint residue classes never
		// tie, so this only matters for degenerate inputs).
		best := -1
		for i, c := range cursors {
			if c.ok && (best < 0 || c.cell < cursors[best].cell) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := cursors[best]

		if !started {
			started = true
			first, err := sink.DecodeJSONL(c.line) // its scenario names the reduction
			if err != nil {
				return nil, err
			}
			if e, ok := Find(first.Scenario); ok {
				_, multi = e.(RecordStreamer)
				red = NewReduction(e)
			} else {
				multi = true // unregistered streams may carry several records per cell
			}
		}
		switch {
		case c.cell == curCell:
			// Another record of the cell being copied. One cell's records
			// always live in one shard stream, so a repeat from a
			// *different* cursor means the same shard (or an overlapping
			// residue spec) was passed twice — and even within one
			// cursor a repeat is only legal for multi-record streams.
			// Either mistake would silently double-count in Reduce.
			if best != curOwner || !multi {
				return nil, fmt.Errorf("exp: merge: cell %d repeated — duplicated shard or overlapping residue spec?",
					c.cell)
			}
		case c.cell == nextCell:
			curCell, curOwner, nextCell = c.cell, best, c.cell+1
		case c.cell > nextCell:
			// A gap: a shard stream is missing or truncated. Keep
			// scanning to report the full missing set, but stop writing
			// (out keeps its gapless prefix) and abandon the reduction.
			missing = append(missing, CellRange{First: nextCell, Last: c.cell - 1})
			finish()
			curCell, curOwner, nextCell = c.cell, best, c.cell+1
		default: // c.cell < curCell: the merge already moved past it
			return nil, fmt.Errorf("exp: merge: cell %d after cell %d — duplicated shard or unsorted stream?",
				c.cell, curCell)
		}

		if len(missing) == 0 {
			if _, err := bw.Write(c.line); err != nil {
				return nil, err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return nil, err
			}
			if red != nil {
				rec, err := dec.Decode(c.line)
				if err != nil {
					return nil, err
				}
				red.Feed(rec)
			}
		}
		if err := advance(c); err != nil {
			return nil, fmt.Errorf("exp: merge: shard %d: %w", best, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		return nil, &GapError{Missing: missing, Cells: nextCell}
	}
	return finish()
}
