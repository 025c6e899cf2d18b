package experiments

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/experiments/exp"
	"repro/internal/scenario/sink"
)

// renderShard streams one shard of an experiment to JSONL under a pinned
// worker count.
func renderShard(t *testing.T, e exp.Experiment, seed int64, sc Scale, shard exp.Shard, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	withWorkers(workers, func() {
		s := sink.NewJSONL(&buf)
		if _, err := exp.Run(e, seed, sc, exp.Options{Sink: s, Shard: shard}); err != nil {
			t.Fatalf("shard %s: %v", shard, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	return buf.Bytes()
}

// TestFig10ShardMergeByteIdentical is the cross-process determinism
// contract: 2-way and 3-way shards of Fig. 10 — each run with a
// different worker count — merge back to the byte-identical unsharded
// JSONL stream and the identical reduction.
func TestFig10ShardMergeByteIdentical(t *testing.T) {
	sc := detScale()
	full, fullRes := renderJSONL(t, fig10Exp{}, 4, sc, max(2, runtime.GOMAXPROCS(0)))
	if len(full) == 0 {
		t.Fatal("Fig10 streamed no records")
	}
	for _, k := range []int{2, 3} {
		var ins []io.Reader
		for i := 0; i < k; i++ {
			// Vary the pool size per shard: worker count must never
			// leak into the bytes.
			workers := 1 + (i % runtime.GOMAXPROCS(0))
			ins = append(ins, bytes.NewReader(renderShard(t, fig10Exp{}, 4, sc, exp.Shard{Index: i, Count: k}, workers)))
		}
		var merged bytes.Buffer
		res, err := exp.Merge(ins, &merged)
		if err != nil {
			t.Fatalf("k=%d: merge: %v", k, err)
		}
		if !bytes.Equal(merged.Bytes(), full) {
			t.Fatalf("k=%d: merged shards differ from the unsharded stream:\nmerged:\n%s\nfull:\n%s",
				k, merged.Bytes(), full)
		}
		if !reflect.DeepEqual(res, fullRes) {
			t.Fatalf("k=%d: merged reduction differs:\nmerged: %+v\nfull:   %+v", k, res, fullRes)
		}
	}
}

// TestFig14ShardMergeByteIdentical covers the config-windowed reduction:
// fig14's per-config fold must come out identical when rebuilt from
// merged shard records.
func TestFig14ShardMergeByteIdentical(t *testing.T) {
	sc := detScale()
	sc.Configs = 2
	full, fullRes := renderJSONL(t, fig14Exp{}, 9, sc, max(2, runtime.GOMAXPROCS(0)))
	if len(full) == 0 {
		t.Fatal("Fig14 streamed no records")
	}
	const k = 2
	var ins []io.Reader
	for i := 0; i < k; i++ {
		ins = append(ins, bytes.NewReader(renderShard(t, fig14Exp{}, 9, sc, exp.Shard{Index: i, Count: k}, i+1)))
	}
	var merged bytes.Buffer
	res, err := exp.Merge(ins, &merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), full) {
		t.Fatalf("merged shards differ from the unsharded stream:\nmerged:\n%s\nfull:\n%s", merged.Bytes(), full)
	}
	if !reflect.DeepEqual(res, fullRes) {
		t.Fatalf("merged reduction differs:\nmerged: %+v\nfull:   %+v", res, fullRes)
	}
}

// TestEveryExperimentRunsAndReduces sweeps the whole registry at a tiny
// scale: every registered figure suite must enumerate cells, stream
// records through the engine, and reduce to a printable result — the
// acceptance contract behind `meshopt fig <name>`.
func TestEveryExperimentRunsAndReduces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure suite")
	}
	sc := detScale()
	for _, name := range exp.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := exp.Find(name)
			if !ok {
				t.Fatalf("registry lost %q", name)
			}
			mem := new(sink.Memory)
			res, err := exp.Run(e, 4, sc, exp.Options{Sink: mem})
			if err != nil {
				t.Fatal(err)
			}
			if res == nil {
				t.Fatal("nil result")
			}
			if len(mem.Records()) == 0 {
				t.Fatal("no records streamed")
			}
			// Cell numbering must be gapless and in order; multi-record
			// experiments (RecordStreamer) may repeat a cell number
			// across consecutive records.
			next := 0
			for i, rec := range mem.Records() {
				if rec.Scenario != name {
					t.Fatalf("record %d not normalized: %+v", i, rec)
				}
				if rec.Cell == next {
					next++
				} else if rec.Cell != next-1 {
					t.Fatalf("record %d out of cell order (want %d or %d): %+v", i, next-1, next, rec)
				}
			}
			res.Print(io.Discard)
		})
	}
}
