// Package sink provides streaming per-cell result sinks for experiment
// and scenario runs. A runner streams one Record per completed cell (in
// deterministic cell order — see runner.Stream) into a Sink instead of
// gathering every result in memory and reducing afterwards, which bounds
// a run's memory by the record size rather than the sweep size.
//
// Sinks are fed serially from a single goroutine; implementations do not
// need to be safe for concurrent Write calls. Field order in a Record is
// preserved by every writer, so two runs that stream the same records
// produce byte-identical output.
package sink

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Field is one ordered key/value pair in a record.
type Field struct {
	Key   string
	Value any
}

// F is shorthand for constructing a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Record is one streamed result row: a cell's outcome within a named
// series of a scenario or figure run.
type Record struct {
	Scenario string  // scenario or figure name
	Series   string  // logical series within the run (e.g. "sample", "config")
	Cell     int     // cell index within the series
	Fields   []Field // ordered payload
}

// Sink consumes streamed records. Write is called serially, in
// deterministic record order; Close flushes any buffering.
type Sink interface {
	Write(rec Record) error
	Close() error
}

// --- JSONL ------------------------------------------------------------

// JSONL writes one JSON object per record per line. Field order follows
// the record, so output is byte-identical across runs that stream the
// same records.
type JSONL struct {
	w    *bufio.Writer
	buf  []byte
	live bool // flush after every record
}

// NewJSONL wraps w in a line-buffered JSONL sink.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// NewLiveJSONL is NewJSONL for a stream someone is watching or may have
// to resume — a worker's protocol stream, a checkpoint tailed by clients:
// every record is flushed as it is written, so the bytes downstream
// always end at a record boundary.
func NewLiveJSONL(w io.Writer) *JSONL {
	j := NewJSONL(w)
	j.live = true
	return j
}

// Write emits rec as one JSON line.
func (j *JSONL) Write(rec Record) error {
	b := j.buf[:0]
	b = append(b, `{"scenario":`...)
	b = appendJSONValue(b, rec.Scenario)
	b = append(b, `,"series":`...)
	b = appendJSONValue(b, rec.Series)
	b = append(b, `,"cell":`...)
	b = strconv.AppendInt(b, int64(rec.Cell), 10)
	for _, f := range rec.Fields {
		b = append(b, ',')
		b = appendJSONValue(b, f.Key)
		b = append(b, ':')
		b = appendJSONValue(b, f.Value)
	}
	b = append(b, '}', '\n')
	j.buf = b
	_, err := j.w.Write(b)
	if err == nil && j.live {
		err = j.w.Flush()
	}
	return err
}

// Close flushes the buffered output.
func (j *JSONL) Close() error { return j.w.Flush() }

// appendJSONValue marshals v onto b. Non-finite floats, which
// encoding/json rejects, are written as null so a degenerate cell cannot
// abort a whole stream.
func appendJSONValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return append(b, "null"...)
		}
	case float32:
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return append(b, "null"...)
		}
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return append(b, "null"...)
	}
	return append(b, enc...)
}

// --- CSV --------------------------------------------------------------

// CSV writes records as comma-separated rows. A header row (scenario,
// series, cell, then the field keys) is emitted whenever the series or
// the field schema changes, so rows always align with the header above
// them even when records in one series carry different field sets (e.g.
// a skipped config's short record).
type CSV struct {
	w        *csv.Writer
	lastKeys []string // series + field keys of the current header
	started  bool
}

// NewCSV wraps w in a CSV sink.
func NewCSV(w io.Writer) *CSV {
	return &CSV{w: csv.NewWriter(w)}
}

// headerMatches reports whether rec's schema matches the current header.
func (c *CSV) headerMatches(rec Record) bool {
	if !c.started || len(c.lastKeys) != 1+len(rec.Fields) || c.lastKeys[0] != rec.Series {
		return false
	}
	for i, f := range rec.Fields {
		if c.lastKeys[1+i] != f.Key {
			return false
		}
	}
	return true
}

// Write emits rec as one CSV row, preceded by a header row when the
// series or field schema changes.
func (c *CSV) Write(rec Record) error {
	if !c.headerMatches(rec) {
		header := make([]string, 0, 3+len(rec.Fields))
		header = append(header, "scenario", "series", "cell")
		c.lastKeys = append(c.lastKeys[:0], rec.Series)
		for _, f := range rec.Fields {
			header = append(header, f.Key)
			c.lastKeys = append(c.lastKeys, f.Key)
		}
		if err := c.w.Write(header); err != nil {
			return err
		}
		c.started = true
	}
	row := make([]string, 0, 3+len(rec.Fields))
	row = append(row, rec.Scenario, rec.Series, strconv.Itoa(rec.Cell))
	for _, f := range rec.Fields {
		row = append(row, formatValue(f.Value))
	}
	if err := c.w.Write(row); err != nil {
		return err
	}
	return nil
}

// Close flushes the buffered output.
func (c *CSV) Close() error {
	c.w.Flush()
	return c.w.Error()
}

// formatValue renders a field value for CSV deterministically.
func formatValue(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32)
	case string:
		return x
	default:
		return fmt.Sprint(v)
	}
}

// --- Memory -----------------------------------------------------------

// Memory collects records in order; tests use it. The zero value is
// ready to use.
type Memory struct {
	records []Record
}

// Write appends rec.
func (m *Memory) Write(rec Record) error {
	m.records = append(m.records, rec)
	return nil
}

// Close is a no-op.
func (m *Memory) Close() error { return nil }

// Records returns the collected records in write order.
func (m *Memory) Records() []Record { return m.records }

// --- Discard ----------------------------------------------------------

// Discard drops every record; runs that only want the reduced result use
// it.
var Discard Sink = discard{}

type discard struct{}

func (discard) Write(Record) error { return nil }
func (discard) Close() error       { return nil }
