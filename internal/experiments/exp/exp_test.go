package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments/runner"
	"repro/internal/scenario/sink"
)

// toyResult is the toy experiment's reduction: the running sum of every
// cell's value, in order.
type toyResult struct {
	Sum   float64
	Cells int
}

func (r toyResult) Print(w io.Writer) { fmt.Fprintf(w, "toy: sum=%g over %d cells\n", r.Sum, r.Cells) }

// toyExp is a minimal experiment: cell i contributes seed*100 + i.
type toyExp struct{ n int }

func (toyExp) Name() string     { return "toy" }
func (toyExp) Describe() string { return "toy experiment for engine tests" }

func (t toyExp) Cells(seed int64, sc Scale) []Cell {
	cells := make([]Cell, t.n)
	for i := range cells {
		cells[i] = Cell{Seed: seed, Data: i}
	}
	return cells
}

func (toyExp) RunCell(c Cell) sink.Record {
	i := c.Data.(int)
	return sink.Record{Fields: []sink.Field{
		sink.F("v", float64(c.Seed)*100+float64(i)),
	}}
}

func (toyExp) Reduce(recs <-chan sink.Record) Result {
	var res toyResult
	for rec := range recs {
		res.Sum += rec.Float("v")
		res.Cells++
	}
	return res
}

func init() { Register(toyExp{n: 7}) }

func TestRunNormalizesAndOrdersRecords(t *testing.T) {
	mem := new(sink.Memory)
	res, err := Run(toyExp{n: 7}, 3, Quick(), Options{Sink: mem})
	if err != nil {
		t.Fatal(err)
	}
	recs := mem.Records()
	if len(recs) != 7 {
		t.Fatalf("got %d records, want 7", len(recs))
	}
	for i, rec := range recs {
		if rec.Scenario != "toy" || rec.Series != "cell" || rec.Cell != i {
			t.Fatalf("record %d not normalized: %+v", i, rec)
		}
	}
	want := toyResult{Sum: 300*7 + 21, Cells: 7}
	if res != want {
		t.Fatalf("reduced %+v, want %+v", res, want)
	}
}

func TestRunShardSelectsResidueClass(t *testing.T) {
	mem := new(sink.Memory)
	res, err := Run(toyExp{n: 7}, 3, Quick(), Options{Sink: mem, Shard: Shard{Index: 1, Count: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("sharded run returned a result: %+v", res)
	}
	var cells []int
	for _, rec := range mem.Records() {
		cells = append(cells, rec.Cell)
	}
	if !reflect.DeepEqual(cells, []int{1, 4}) {
		t.Fatalf("shard 1/3 of 7 cells ran %v, want [1 4]", cells)
	}
}

func TestRunFromCellResumesStreamSuffix(t *testing.T) {
	render := func(o Options) []byte {
		var buf bytes.Buffer
		s := sink.NewJSONL(&buf)
		o.Sink = s
		res, err := Run(toyExp{n: 7}, 3, Quick(), o)
		if err != nil {
			t.Fatal(err)
		}
		if o.FromCell > 0 && res != nil {
			t.Fatalf("resumed run returned a result: %+v", res)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	full := render(Options{})
	for _, from := range []int{1, 3, 6, 7} {
		suffix := render(Options{FromCell: from})
		lines := bytes.SplitAfter(full, []byte("\n"))
		want := bytes.Join(lines[from:], nil)
		if !bytes.Equal(suffix, want) {
			t.Fatalf("FromCell=%d streamed:\n%swant:\n%s", from, suffix, want)
		}
	}
}

func TestRunProgressCountsCellsInOrder(t *testing.T) {
	for _, o := range []Options{{}, {FromCell: 2}, {Shard: Shard{Index: 0, Count: 2}}} {
		var dones []int
		total := -1
		o.Progress = func(done, tot int) {
			dones = append(dones, done)
			total = tot
		}
		if _, err := Run(toyExp{n: 7}, 3, Quick(), o); err != nil {
			t.Fatal(err)
		}
		want := 7
		if o.FromCell > 0 {
			want = 5
		} else if o.Shard.Enabled() {
			want = 4 // cells 0, 2, 4, 6
		}
		if len(dones) != want || total != want {
			t.Fatalf("%+v: progress calls %v (total %d), want %d increments", o.Shard, dones, total, want)
		}
		for i, d := range dones {
			if d != i+1 {
				t.Fatalf("progress out of order: %v", dones)
			}
		}
	}
}

func TestParseShard(t *testing.T) {
	if s, err := ParseShard("2/5"); err != nil || s != (Shard{Index: 2, Count: 5}) {
		t.Fatalf("ParseShard(2/5) = %v, %v", s, err)
	}
	for _, bad := range []string{"", "x", "3/2", "2/2", "-1/2", "1/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// renderShards returns the full JSONL stream plus each of k shard
// streams.
func renderShards(t *testing.T, k int) (full []byte, shards [][]byte) {
	t.Helper()
	render := func(shard Shard) []byte {
		var buf bytes.Buffer
		s := sink.NewJSONL(&buf)
		if _, err := Run(toyExp{n: 7}, 3, Quick(), Options{Sink: s, Shard: shard}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	full = render(Shard{})
	for i := 0; i < k; i++ {
		shards = append(shards, render(Shard{Index: i, Count: k}))
	}
	return full, shards
}

func TestMergeReassemblesShards(t *testing.T) {
	for _, k := range []int{2, 3, 8, 9} { // 8 > cells: some empty shards; 9 ≡ shards of ≤1 cell
		full, shards := renderShards(t, k)
		var ins []io.Reader
		for _, s := range shards {
			ins = append(ins, bytes.NewReader(s))
		}
		var merged bytes.Buffer
		res, err := Merge(ins, &merged)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !bytes.Equal(merged.Bytes(), full) {
			t.Fatalf("k=%d: merged stream differs:\nmerged:\n%s\nfull:\n%s", k, merged.Bytes(), full)
		}
		if res != (toyResult{Sum: 300*7 + 21, Cells: 7}) {
			t.Fatalf("k=%d: merged reduction %+v", k, res)
		}
	}
}

func TestMergeDetectsMissingShard(t *testing.T) {
	_, shards := renderShards(t, 2)
	if _, err := Merge([]io.Reader{bytes.NewReader(shards[1])}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("merge of a lone odd shard: err = %v, want missing-shard error", err)
	}
}

func TestMergeRejectsDuplicateShard(t *testing.T) {
	_, shards := renderShards(t, 2)
	// The same shard twice: duplicated cells must not silently
	// double-count in the reduction.
	ins := []io.Reader{bytes.NewReader(shards[0]), bytes.NewReader(shards[0]), bytes.NewReader(shards[1])}
	if _, err := Merge(ins, io.Discard); err == nil || !strings.Contains(err.Error(), "duplicated") {
		t.Fatalf("merge with a duplicated shard: err = %v, want duplicate-shard error", err)
	}
}

func TestMergeUnknownScenarioSkipsReduction(t *testing.T) {
	in := strings.NewReader(`{"scenario":"nope","series":"cell","cell":0,"v":1}` + "\n")
	var out bytes.Buffer
	res, err := Merge([]io.Reader{in}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("unexpected reduction: %+v", res)
	}
	if !strings.Contains(out.String(), `"scenario":"nope"`) {
		t.Fatalf("merged stream lost the record: %s", out.String())
	}
}

func TestRegistryFindAliasesAndNames(t *testing.T) {
	if _, ok := Find("toy"); !ok {
		t.Fatal("toy not registered")
	}
	RegisterAlias("toy-alias", "toy")
	if e, ok := Find("toy-alias"); !ok || e.Name() != "toy" {
		t.Fatal("alias did not resolve")
	}
	found := false
	for _, n := range Names() {
		if n == "toy-alias" {
			t.Fatal("alias leaked into Names")
		}
		if n == "toy" {
			found = true
		}
	}
	if !found {
		t.Fatal("Names missing toy")
	}
}

// TestRunContextCancelStreamsPrefix: cancelling Options.Context stops
// the fan-out at a cell boundary and leaves the sink holding a
// byte-identical gapless prefix of the full run's stream — a valid
// resume checkpoint — with the error wrapping the cancellation cause.
func TestRunContextCancelStreamsPrefix(t *testing.T) {
	old := runner.SetWorkers(2)
	defer runner.SetWorkers(old)
	e := toyExp{n: 100}

	render := func(o Options) ([]byte, error) {
		var buf bytes.Buffer
		s := sink.NewJSONL(&buf)
		o.Sink = s
		_, err := Run(e, 3, Quick(), o)
		if cerr := s.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		return buf.Bytes(), err
	}
	full, err := render(Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	part, err := render(Options{
		Context: ctx,
		Progress: func(done, total int) {
			if done == 5 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled after") {
		t.Fatalf("error %v lacks progress accounting", err)
	}
	if !bytes.HasPrefix(full, part) {
		t.Fatalf("partial stream is not a byte-prefix of the full stream:\npartial:\n%s", part)
	}
	if n := bytes.Count(part, []byte("\n")); n < 5 || n >= 100 {
		t.Fatalf("partial stream has %d records, want [5, 100)", n)
	}
}

// failSink errors on the Nth write.
type failSink struct {
	n, failAt int
}

var errSinkFull = errors.New("sink full")

func (s *failSink) Write(sink.Record) error {
	s.n++
	if s.n >= s.failAt {
		return errSinkFull
	}
	return nil
}

func (s *failSink) Close() error { return nil }

// countingExp instruments RunCell so the test can observe how many
// cells actually executed.
type countingExp struct {
	toyExp
	ran *atomic.Int64
}

func (e countingExp) RunCell(c Cell) sink.Record {
	e.ran.Add(1)
	return e.toyExp.RunCell(c)
}

// TestRunSinkErrorAbortsFanout: once a sink write fails, the engine
// stops claiming cells — it must not compute hundreds of cells whose
// records have nowhere to land — and reports the sink error.
func TestRunSinkErrorAbortsFanout(t *testing.T) {
	old := runner.SetWorkers(2)
	defer runner.SetWorkers(old)
	var ran atomic.Int64
	e := countingExp{toyExp: toyExp{n: 400}, ran: &ran}
	_, err := Run(e, 3, Quick(), Options{Sink: &failSink{failAt: 5}})
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if n := ran.Load(); n >= 400 {
		t.Fatalf("all %d cells ran despite the sink failing at record 5", n)
	}
}

// panicExp panics in one cell.
type panicExp struct {
	toyExp
	at int
}

func (e panicExp) RunCell(c Cell) sink.Record {
	if c.Index == e.at {
		panic("cell exploded")
	}
	return e.toyExp.RunCell(c)
}

// TestRunCellPanicIsAnError: a panicking cell fails the run with a
// *runner.PanicError naming it, on the reducing and the sharded path
// and at any worker count, after the cells before it reached the sink.
func TestRunCellPanicIsAnError(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, shard := range []Shard{{}, {Index: 0, Count: 1}} {
			old := runner.SetWorkers(workers)
			mem := new(sink.Memory)
			_, err := Run(panicExp{toyExp: toyExp{n: 7}, at: 3}, 3, Quick(), Options{Sink: mem, Shard: shard})
			runner.SetWorkers(old)
			var pe *runner.PanicError
			if !errors.As(err, &pe) || pe.Cell != 3 {
				t.Fatalf("workers=%d shard=%v: err = %v, want a *runner.PanicError for cell 3", workers, shard, err)
			}
			if got := len(mem.Records()); got != 3 {
				t.Fatalf("workers=%d shard=%v: %d records reached the sink, want cells 0..2", workers, shard, got)
			}
		}
	}
}
