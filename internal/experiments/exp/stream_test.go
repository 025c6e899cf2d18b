package exp

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario/sink"
)

// multiToy is a RecordStreamer experiment: cell i emits two records
// (series "a" and "b") plus values derived from the seed.
type multiToy struct{ n int }

func (multiToy) Name() string     { return "multitoy" }
func (multiToy) Describe() string { return "multi-record toy experiment" }

func (t multiToy) Cells(seed int64, sc Scale) []Cell {
	cells := make([]Cell, t.n)
	for i := range cells {
		cells[i] = Cell{Seed: seed, Data: i}
	}
	return cells
}

func (t multiToy) RunCell(c Cell) sink.Record { return t.RunCellRecords(c)[0] }

func (t multiToy) RunCellRecords(c Cell) []sink.Record {
	i := c.Data.(int)
	return []sink.Record{
		{Series: "a", Fields: []sink.Field{sink.F("v", float64(c.Seed)*10+float64(i))}},
		{Series: "b", Fields: []sink.Field{sink.F("w", float64(i))}},
	}
}

func (multiToy) Reduce(recs <-chan sink.Record) Result {
	var res toyResult
	for rec := range recs {
		if rec.Series == "a" {
			res.Sum += rec.Float("v")
			res.Cells++
		}
	}
	return res
}

func init() { Register(multiToy{n: 5}) }

func TestRunStreamsMultiRecordCells(t *testing.T) {
	mem := new(sink.Memory)
	res, err := Run(multiToy{n: 5}, 2, Quick(), Options{Sink: mem})
	if err != nil {
		t.Fatal(err)
	}
	recs := mem.Records()
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	for i, rec := range recs {
		wantSeries := "a"
		if i%2 == 1 {
			wantSeries = "b"
		}
		if rec.Scenario != "multitoy" || rec.Cell != i/2 || rec.Series != wantSeries {
			t.Fatalf("record %d not normalized: %+v", i, rec)
		}
	}
	if res != (toyResult{Sum: 20*5 + 10, Cells: 5}) {
		t.Fatalf("reduced %+v", res)
	}
}

func TestMergeMultiRecordShards(t *testing.T) {
	render := func(shard Shard) []byte {
		var buf bytes.Buffer
		s := sink.NewJSONL(&buf)
		if _, err := Run(multiToy{n: 5}, 2, Quick(), Options{Sink: s, Shard: shard}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return buf.Bytes()
	}
	full := render(Shard{})
	var merged bytes.Buffer
	res, err := Merge([]io.Reader{
		bytes.NewReader(render(Shard{Index: 0, Count: 2})),
		bytes.NewReader(render(Shard{Index: 1, Count: 2})),
	}, &merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), full) {
		t.Fatalf("merged multi-record stream differs:\n%s\nvs\n%s", merged.Bytes(), full)
	}
	if res != (toyResult{Sum: 20*5 + 10, Cells: 5}) {
		t.Fatalf("merged reduction %+v", res)
	}
}

func TestMergeRejectsDuplicateMultiRecordShard(t *testing.T) {
	render := func(shard Shard) []byte {
		var buf bytes.Buffer
		s := sink.NewJSONL(&buf)
		if _, err := Run(multiToy{n: 5}, 2, Quick(), Options{Sink: s, Shard: shard}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return buf.Bytes()
	}
	s0, s1 := render(Shard{Index: 0, Count: 2}), render(Shard{Index: 1, Count: 2})
	// The same shard twice: even though multi-record streams may repeat
	// a cell within one input, a repeat across inputs is a duplicated
	// shard and must not silently double-count.
	ins := []io.Reader{bytes.NewReader(s0), bytes.NewReader(s0), bytes.NewReader(s1)}
	if _, err := Merge(ins, io.Discard); err == nil || !strings.Contains(err.Error(), "duplicated") {
		t.Fatalf("merge with a duplicated multi-record shard: err = %v", err)
	}
}

func TestMergeNamesMissingResidueClasses(t *testing.T) {
	_, shards := renderShards(t, 3)
	// Only shard 1 of 3: cells 1 and 4 present. Cells 0, 2-3 are gaps
	// (5-6 are tail truncation, which only the coordinator — knowing
	// the enumeration — can catch); over the visible range 0..4 the
	// missing set is exactly residue classes 0 and 2 mod 3.
	_, err := Merge([]io.Reader{bytes.NewReader(shards[1])}, io.Discard)
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("err = %v, want *GapError", err)
	}
	want := []CellRange{{0, 0}, {2, 3}}
	if !reflect.DeepEqual(gap.Missing, want) {
		t.Fatalf("missing = %v, want %v", gap.Missing, want)
	}
	for _, frag := range []string{"missing", "0/3", "2/3"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not name %q", err, frag)
		}
	}
}

func TestMergeSkipsMarkerLines(t *testing.T) {
	full, shards := renderShards(t, 2)
	withMarker := func(b []byte) io.Reader {
		return bytes.NewReader(append(b, []byte("#done records=4 sha256=feed\n")...))
	}
	var merged bytes.Buffer
	if _, err := Merge([]io.Reader{withMarker(shards[0]), withMarker(shards[1])}, &merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), full) {
		t.Fatalf("marker lines leaked into the merge:\n%s", merged.Bytes())
	}
}

// pushAll feeds a rendered shard stream line-by-line into a Merger.
func pushAll(t *testing.T, m *Merger, shard int, stream []byte) {
	t.Helper()
	for _, line := range bytes.Split(stream, []byte{'\n'}) {
		if err := m.Push(shard, line); err != nil {
			t.Fatalf("push shard %d: %v", shard, err)
		}
	}
}

func TestMergerLiveMergeAnyArrivalOrder(t *testing.T) {
	full, shards := renderShards(t, 3)
	// Worst-case arrival: the last residue class streams first. The
	// merger must buffer it and still emit the global cell order.
	var out bytes.Buffer
	e, _ := Find("toy")
	m := NewMerger(&out, 3, e)
	for _, shard := range []int{2, 1, 0} {
		pushAll(t, m, shard, shards[shard])
		if err := m.CloseShard(shard); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Finish(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), full) {
		t.Fatalf("merged stream differs:\n%s\nvs\n%s", out.Bytes(), full)
	}
	if res != (toyResult{Sum: 300*7 + 21, Cells: 7}) {
		t.Fatalf("reduction %+v", res)
	}
}

func TestMergerStreamsFrontierBeforeLateShards(t *testing.T) {
	_, shards := renderShards(t, 2)
	var out bytes.Buffer
	m := NewMerger(&out, 2, nil)
	defer m.Abort()
	pushAll(t, m, 0, shards[0]) // cells 0,2,4,6 — only cell 0 can emit
	if err := m.CloseShard(0); err != nil {
		t.Fatal(err)
	}
	if m.Frontier() != 1 {
		t.Fatalf("frontier = %d before shard 1 arrived, want 1", m.Frontier())
	}
	if got := bytes.Count(out.Bytes(), []byte{'\n'}); got > 1 {
		// The merger's own bufio may hold emitted lines; it must not
		// have emitted beyond the frontier.
		t.Fatalf("emitted %d lines while the frontier shard is missing", got)
	}
}

func TestMergerRejectsWrongResidueAndDisorder(t *testing.T) {
	_, shards := renderShards(t, 2)
	m := NewMerger(io.Discard, 2, nil)
	defer m.Abort()
	lines := bytes.Split(bytes.TrimSpace(shards[0]), []byte{'\n'})
	if err := m.Push(1, lines[0]); err == nil || !strings.Contains(err.Error(), "residue") {
		t.Fatalf("wrong-residue push: err = %v", err)
	}
	if err := m.Push(0, lines[0]); err != nil { // cell 0 emits
		t.Fatal(err)
	}
	if err := m.Push(0, lines[2]); err != nil { // cell 4 buffers (frontier is 1)
		t.Fatal(err)
	}
	if err := m.Push(0, lines[1]); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("out-of-order push: err = %v", err)
	}
}

func TestMergerFlagsFrontierShardSkippingItsCell(t *testing.T) {
	_, shards := renderShards(t, 2)
	m := NewMerger(io.Discard, 2, nil)
	defer m.Abort()
	lines := bytes.Split(bytes.TrimSpace(shards[0]), []byte{'\n'})
	// Shard 0 owns the frontier (cell 0) but opens with cell 2: a
	// truncated stream, flagged as soon as it is visible.
	if err := m.Push(0, lines[1]); err == nil || !strings.Contains(err.Error(), "skipped cell 0") {
		t.Fatalf("skip push: err = %v", err)
	}
}

func TestMergerFinishReportsMissingShard(t *testing.T) {
	_, shards := renderShards(t, 2)
	m := NewMerger(io.Discard, 2, nil)
	defer m.Abort()
	pushAll(t, m, 0, shards[0])
	if _, err := m.Finish(7); err == nil || !strings.Contains(err.Error(), "missing cell 1") {
		t.Fatalf("finish without shard 1: err = %v", err)
	}
}

func TestNamedScale(t *testing.T) {
	if sc, ok := NamedScale("quick"); !ok || sc != Quick() {
		t.Fatal("quick did not resolve")
	}
	if sc, ok := NamedScale("paper"); !ok || sc != Paper() {
		t.Fatal("paper did not resolve")
	}
	if _, ok := NamedScale("warp"); ok {
		t.Fatal("bogus scale resolved")
	}
}

// Ensure the duplicate-shard detection still fires for single-record
// experiments pushed through the Merger (same cell twice).
func TestMergerRejectsRepeatedCellForSingleRecordExperiment(t *testing.T) {
	_, shards := renderShards(t, 2)
	e, _ := Find("toy")
	m := NewMerger(io.Discard, 2, e)
	defer m.Abort()
	lines := bytes.Split(bytes.TrimSpace(shards[0]), []byte{'\n'})
	if err := m.Push(0, lines[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Push(0, lines[0]); err == nil || !strings.Contains(err.Error(), "repeated") {
		t.Fatalf("repeated cell push: err = %v", err)
	}
}

// TestMergerRefusesMalformedLineAhead: a line whose header is fine but
// whose payload is not JSON is refused by the Push that hands it over,
// even when its cell is far ahead of the frontier and would only be
// emitted later. A worker's corrupt stream must fail at the line that
// carries the damage, before anything of it is merged or checkpointed.
func TestMergerRefusesMalformedLineAhead(t *testing.T) {
	e, _ := Find("toy")
	for _, e := range []Experiment{e, nil} {
		m := NewMerger(io.Discard, 2, e)
		if err := m.Push(1, []byte(`{"scenario":"toy","series":"cell","cell":1,"v":101}`)); err != nil {
			t.Fatal(err)
		}
		err := m.Push(1, []byte(`{"scenario":"toy","series":"cell","cell":3,"v":1.}`))
		if err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("malformed payload ahead of the frontier: err = %v", err)
		}
		if m.Frontier() != 0 || m.Last(1) != 1 {
			t.Fatalf("refused line moved the merge: frontier %d, last %d", m.Frontier(), m.Last(1))
		}
		m.Abort()
	}
}

// mergerLines renders n one-record lines of an unregistered scenario
// whose payload holds a float that decoding would have to box.
func mergerLines(n int) [][]byte {
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = []byte(`{"scenario":"unregistered","series":"cell","cell":` + strconv.Itoa(i) + `,"v":0.3183098861837907}`)
	}
	return lines
}

// TestMergerPushAheadAllocates: queueing lines ahead of the frontier
// copies them into the shard's buffer; the buffer's growth is all that
// allocates.
func TestMergerPushAheadAllocates(t *testing.T) {
	const n = 1000
	lines := mergerLines(2 * n)
	perLine := testing.AllocsPerRun(5, func() {
		m := NewMerger(io.Discard, 2, nil)
		for i := 1; i < 2*n; i += 2 { // shard 1's cells; the frontier waits on cell 0
			if err := m.Push(1, lines[i]); err != nil {
				t.Fatal(err)
			}
		}
		if m.Frontier() != 0 {
			t.Fatalf("frontier %d, want 0", m.Frontier())
		}
	}) / n
	if perLine >= 0.1 {
		t.Errorf("Push ahead of the frontier: %v allocs per line, want < 0.1", perLine)
	}
}

// TestMergerWithoutReductionBuildsNoRecord: with no experiment to feed,
// lines pass from Push to the output without a Record being decoded —
// decoding one of these lines would box its float.
func TestMergerWithoutReductionBuildsNoRecord(t *testing.T) {
	lines := mergerLines(200)
	m := NewMerger(io.Discard, 1, nil)
	defer m.Abort()
	i := 0
	if n := testing.AllocsPerRun(len(lines)-1, func() {
		if err := m.Push(0, lines[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("merging a line without a reduction: %v allocs, want 0", n)
	}
	if m.Frontier() != len(lines)-1 {
		t.Fatalf("frontier %d, want %d", m.Frontier(), len(lines)-1)
	}
}
