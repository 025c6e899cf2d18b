package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/experiments/exp"
	"repro/internal/experiments/runner"
	"repro/internal/scenario/sink"
	"repro/internal/sim"
)

// detScale is a scale small enough to run a figure twice in a unit test.
func detScale() Scale {
	sc := exp.Quick()
	sc.PhaseDur = 800 * sim.Millisecond
	sc.Pairs = 4
	sc.Configs = 1
	sc.Iterations = 1
	sc.GridN = 3
	sc.ProbeWindow = 100
	sc.ProbePeriod = 40 * sim.Millisecond
	sc.TrafficDur = 2 * sim.Second
	return sc
}

// withWorkers runs fn under a pinned worker-pool size.
func withWorkers(n int, fn func()) {
	old := runner.SetWorkers(n)
	defer runner.SetWorkers(old)
	fn()
}

// TestRunFig10DeterministicAcrossWorkerCounts is the engine's core
// guarantee: a figure's numbers depend only on the seed, never on how
// many workers executed its cells.
func TestRunFig10DeterministicAcrossWorkerCounts(t *testing.T) {
	sc := detScale()
	var seq, par Fig10Result
	withWorkers(1, func() { seq = run[Fig10Result](t, fig10Exp{}, 4, sc) })
	withWorkers(max(2, runtime.GOMAXPROCS(0)), func() { par = run[Fig10Result](t, fig10Exp{}, 4, sc) })
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Fig10 differs between 1 worker and the full pool:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestRunNetValidationDeterministicAcrossWorkerCounts covers the
// heaviest runner user: full §4.5 validation with routing, offline
// measurement and optimization per cell.
func TestRunNetValidationDeterministicAcrossWorkerCounts(t *testing.T) {
	sc := detScale()
	var seq, par NetValidationResult
	withWorkers(1, func() { seq = run[NetValidationResult](t, netvalidExp{}, 11, sc) })
	withWorkers(max(2, runtime.GOMAXPROCS(0)), func() { par = run[NetValidationResult](t, netvalidExp{}, 11, sc) })
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("NetValidation differs between 1 worker and the full pool:\nseq: %+v\npar: %+v", seq, par)
	}
}

// renderJSONL streams an experiment's records through the engine into a
// JSONL buffer under a pinned worker count, returning the bytes and the
// reduced result.
func renderJSONL(t *testing.T, e exp.Experiment, seed int64, sc Scale, workers int) ([]byte, exp.Result) {
	t.Helper()
	var buf bytes.Buffer
	var res exp.Result
	withWorkers(workers, func() {
		s := sink.NewJSONL(&buf)
		var err error
		res, err = exp.Run(e, seed, sc, exp.Options{Sink: s})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	return buf.Bytes(), res
}

// TestFig10JSONLByteIdenticalAcrossWorkerCounts extends the engine
// guarantee to the streaming path: the JSONL record stream a figure
// emits as its cells complete is byte-identical between 1 worker and a
// full pool, because runner.Stream emits in cell order regardless of
// completion order.
func TestFig10JSONLByteIdenticalAcrossWorkerCounts(t *testing.T) {
	sc := detScale()
	seq, _ := renderJSONL(t, fig10Exp{}, 4, sc, 1)
	par, _ := renderJSONL(t, fig10Exp{}, 4, sc, max(2, runtime.GOMAXPROCS(0)))
	if len(seq) == 0 {
		t.Fatal("Fig10 streamed no records")
	}
	if !bytes.Equal(seq, par) {
		t.Fatalf("Fig10 JSONL differs between 1 worker and the full pool:\nseq:\n%s\npar:\n%s", seq, par)
	}
}

// TestFig14JSONLByteIdenticalAcrossWorkerCounts covers the streamed
// per-config reduction: cell records and the folded result must both be
// identical for any pool size.
func TestFig14JSONLByteIdenticalAcrossWorkerCounts(t *testing.T) {
	sc := detScale()
	sc.Configs = 2
	seq, seqRes := renderJSONL(t, fig14Exp{}, 9, sc, 1)
	par, parRes := renderJSONL(t, fig14Exp{}, 9, sc, max(2, runtime.GOMAXPROCS(0)))
	if len(seq) == 0 {
		t.Fatal("Fig14 streamed no records")
	}
	if !bytes.Equal(seq, par) {
		t.Fatalf("Fig14 JSONL differs between 1 worker and the full pool:\nseq:\n%s\npar:\n%s", seq, par)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Fatalf("Fig14 reduction differs between 1 worker and the full pool:\nseq: %+v\npar: %+v", seqRes, parRes)
	}
}

// TestRunFig4DeterministicAcrossWorkerCounts adds a pairwise-model
// figure so all three cell shapes (mesh probe, validation, two-link
// grid) are pinned.
func TestRunFig4DeterministicAcrossWorkerCounts(t *testing.T) {
	sc := detScale()
	var seq, par Fig4Result
	withWorkers(1, func() { seq = run[Fig4Result](t, fig4Exp{}, 5, sc) })
	withWorkers(max(2, runtime.GOMAXPROCS(0)), func() { par = run[Fig4Result](t, fig4Exp{}, 5, sc) })
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Fig4 differs between 1 worker and the full pool:\nseq: %+v\npar: %+v", seq, par)
	}
}
