package scenario

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/experiments/exp"
	"repro/internal/experiments/runner"
	"repro/internal/scenario/sink"
)

// renderSpecJSONL streams the fairness sweep through the experiment
// adapter under a pinned worker count.
func renderSpecJSONL(t *testing.T, e exp.Experiment, shard exp.Shard, workers int) ([]byte, exp.Result) {
	t.Helper()
	prev := runner.SetWorkers(workers)
	defer runner.SetWorkers(prev)
	var buf bytes.Buffer
	s := sink.NewJSONL(&buf)
	res, err := exp.Run(e, 11, exp.Quick(), exp.Options{Sink: s, Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

func fairnessExperiment(t *testing.T) exp.Experiment {
	t.Helper()
	spec, ok := Lookup("fairness")
	if !ok {
		t.Fatal("fairness not registered")
	}
	e, err := Experiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestScenarioExperimentEnumeratesSweep(t *testing.T) {
	e := fairnessExperiment(t)
	if e.Name() != "fairness" {
		t.Fatalf("name = %q", e.Name())
	}
	cells := e.Cells(11, exp.Quick())
	if len(cells) != 6 { // the alpha axis has 6 values
		t.Fatalf("enumerated %d cells, want 6", len(cells))
	}
}

func TestScenarioExperimentShardMergeByteIdentical(t *testing.T) {
	e := fairnessExperiment(t)
	full, fullRes := renderSpecJSONL(t, e, exp.Shard{}, 2)
	if len(full) == 0 {
		t.Fatal("no records streamed")
	}
	s0, _ := renderSpecJSONL(t, e, exp.Shard{Index: 0, Count: 2}, 1)
	s1, _ := renderSpecJSONL(t, e, exp.Shard{Index: 1, Count: 2}, 2)

	// Whole-file merge: bytes identical (no reduction — scenario specs
	// are not in the experiment registry).
	var merged bytes.Buffer
	if _, err := exp.Merge([]io.Reader{bytes.NewReader(s0), bytes.NewReader(s1)}, &merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), full) {
		t.Fatalf("merged sweep differs from the unsharded stream:\nmerged:\n%s\nfull:\n%s", merged.Bytes(), full)
	}

	// Incremental merge with the adapter supplied explicitly: bytes and
	// reduction both identical.
	var live bytes.Buffer
	m := exp.NewMerger(&live, 2, e)
	for shard, stream := range [][]byte{s0, s1} {
		for _, line := range bytes.Split(stream, []byte{'\n'}) {
			if err := m.Push(shard, line); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CloseShard(shard); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Finish(6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), full) {
		t.Fatalf("live-merged sweep differs from the unsharded stream")
	}
	if !reflect.DeepEqual(res, fullRes) {
		t.Fatalf("live-merged reduction differs:\n%+v\nvs\n%+v", res, fullRes)
	}
	sr, ok := res.(*SweepResult)
	if !ok || sr.Cells != 6 || len(sr.Lines) != 6 {
		t.Fatalf("sweep result %+v", res)
	}
}
