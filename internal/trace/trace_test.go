package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/phy"
	"repro/internal/scenario/sink"
)

// TestRecordsDecodeRoundTrip pins the wire format: a collected trace
// rendered as "trace" records, streamed through the JSONL sink and
// decoded back, must reproduce every link and event exactly.
func TestRecordsDecodeRoundTrip(t *testing.T) {
	cc := NewCellCapture()
	cc.Decide(phy.Decision{T: 10, Src: 1, Dst: 2, Seq: 0, Kind: phy.KindData,
		Rate: phy.Rate11, Bytes: 1500, Delivered: false, Cause: phy.CauseChannel})
	cc.Decide(phy.Decision{T: 20, Src: 1, Dst: 2, Seq: 1, Kind: phy.KindData,
		Rate: phy.Rate11, Bytes: 1500, Delivered: true})
	cc.Decide(phy.Decision{T: 30, Src: 2, Dst: 3, Seq: 5, Kind: phy.KindAck,
		Rate: phy.Rate1, Bytes: 14, Delivered: false, Cause: phy.CauseSINR})

	recs := cc.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d trace records, want 2 (one per link)", len(recs))
	}
	for i := range recs {
		recs[i].Cell = 7
	}
	var buf bytes.Buffer
	s := sink.NewJSONL(&buf)
	for _, r := range recs {
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	decoded, err := sink.DecodeJSONLStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(decoded)
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(Trace{7: cc.Collector()}, tr)
	if !rep.Identical() {
		var b bytes.Buffer
		rep.Print(&b)
		t.Fatalf("round-tripped trace differs:\n%s", b.String())
	}
	if rep.Events != 3 || rep.Links != 2 || rep.Cells != 1 {
		t.Fatalf("report counts: %+v", rep)
	}
}

// TestDecodeRejectsLengthMismatch: a trace record whose arrays disagree
// with its n field is corrupt and must error, not truncate silently.
func TestDecodeRejectsLengthMismatch(t *testing.T) {
	rec := sink.Record{Series: Series, Fields: []sink.Field{
		sink.F("src", 1), sink.F("dst", 2), sink.F("n", 2),
		sink.F("seq", []float64{0}), sink.F("t", []float64{0, 1}),
		sink.F("kind", []float64{0, 0}), sink.F("rate", []float64{1, 1}),
		sink.F("bytes", []float64{9, 9}), sink.F("out", []float64{0, 0}),
	}}
	if _, err := Decode([]sink.Record{rec}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestReplayCursorSemantics pins the replay protocol: recorded
// channel/delivered outcomes answer the query, frames the trace never
// saw fall back to the caller's coin, pre-channel drops (SINR,
// unlocked) are skipped by seq — and a frame reaching the channel
// decision that the recording says never did is a divergence.
func TestReplayCursorSemantics(t *testing.T) {
	ct := NewCollector()
	l := Link{Src: 1, Dst: 2}
	ct.Add(l, Event{Seq: 0, Kind: int(phy.KindData), Out: OutChannel})
	ct.Add(l, Event{Seq: 2, Kind: int(phy.KindData), Out: OutDelivered})
	ct.Add(l, Event{Seq: 3, Kind: int(phy.KindData), Out: OutSINR})
	r := NewReplay(ct)

	if !r.Outcome(1, 2, 0, int(phy.KindData), false) {
		t.Error("recorded channel loss replayed as delivery")
	}
	// Seq 1 is not in the trace: the caller's coin decides.
	if !r.Outcome(1, 2, 1, int(phy.KindData), true) {
		t.Error("untraced frame ignored the fallback coin")
	}
	if r.Outcome(1, 2, 2, int(phy.KindData), true) {
		t.Error("recorded delivery replayed as loss")
	}
	if r.Err() != nil {
		t.Fatalf("premature divergence: %v", r.Err())
	}
	// Seq 3 was recorded as dropped by SINR — it never reached the
	// channel decision. Reaching it now is a divergence (coin decides).
	if !r.Outcome(1, 2, 3, int(phy.KindData), true) {
		t.Error("diverged frame ignored the fallback coin")
	}
	if r.Err() == nil {
		t.Error("divergence not reported")
	}

	// An entirely untraced link falls back to the coin, no divergence.
	r2 := NewReplay(ct)
	if !r2.Outcome(9, 8, 0, int(phy.KindData), true) {
		t.Error("untraced link ignored the fallback coin")
	}
	if r2.Err() != nil {
		t.Errorf("untraced link diverged: %v", r2.Err())
	}

	// Pre-channel drops before the queried seq are skipped silently.
	ct3 := NewCollector()
	ct3.Add(l, Event{Seq: 0, Kind: int(phy.KindData), Out: OutUnlocked})
	ct3.Add(l, Event{Seq: 1, Kind: int(phy.KindData), Out: OutDelivered})
	r3 := NewReplay(ct3)
	if r3.Outcome(1, 2, 1, int(phy.KindData), true) {
		t.Error("skip over a pre-channel drop broke the match")
	}
	if r3.Err() != nil {
		t.Errorf("skipped pre-channel drop counted as divergence: %v", r3.Err())
	}
}

// TestReplayLostMirrorsDraw: Lost must consume exactly one rng draw iff
// p > 0, keeping the stream bit-aligned with the stochastic channel it
// replaces.
func TestReplayLostMirrorsDraw(t *testing.T) {
	ct := NewCollector()
	ct.Add(Link{Src: 1, Dst: 2}, Event{Seq: 0, Kind: int(phy.KindData), Out: OutDelivered})
	ct.Add(Link{Src: 1, Dst: 2}, Event{Seq: 1, Kind: int(phy.KindData), Out: OutDelivered})
	r := NewReplay(ct)
	f := &phy.Frame{Src: 1, Dst: 2, Kind: phy.KindData, Seq: 0}

	rng := rand.New(rand.NewSource(99))
	mirror := rand.New(rand.NewSource(99))
	if r.Lost(f, 2, 0.5, rng) {
		t.Error("recorded delivery replayed as loss")
	}
	mirror.Float64() // the stochastic channel would have drawn once
	if rng.Float64() != mirror.Float64() {
		t.Error("Lost with p>0 did not consume exactly one draw")
	}

	f.Seq = 1
	if r.Lost(f, 2, 0, rng) {
		t.Error("recorded delivery replayed as loss")
	}
	if rng.Float64() != mirror.Float64() {
		t.Error("Lost with p=0 consumed a draw (the stochastic channel draws iff p>0)")
	}
}

// TestDiffDetects covers the three divergence classes: a changed event,
// a count mismatch, and a link present on one side only.
func TestDiffDetects(t *testing.T) {
	mk := func(events ...Event) *CellTrace {
		ct := NewCollector()
		for _, e := range events {
			ct.Add(Link{Src: 1, Dst: 2}, e)
		}
		return ct
	}
	base := Event{Seq: 0, Kind: int(phy.KindData), Out: OutDelivered}
	flipped := base
	flipped.Out = OutChannel

	if rep := Diff(Trace{0: mk(base)}, Trace{0: mk(base)}); !rep.Identical() {
		t.Fatal("identical traces diverge")
	}
	if rep := Diff(Trace{0: mk(base)}, Trace{0: mk(flipped)}); rep.Identical() {
		t.Fatal("flipped outcome not detected")
	}
	if rep := Diff(Trace{0: mk(base)}, Trace{0: mk(base, base)}); rep.Identical() {
		t.Fatal("event count mismatch not detected")
	}
	other := NewCollector()
	other.Add(Link{Src: 3, Dst: 4}, base)
	if rep := Diff(Trace{0: mk(base)}, Trace{0: other}); rep.Identical() {
		t.Fatal("link-set mismatch not detected")
	}
	if rep := Diff(Trace{0: mk(base)}, Trace{1: mk(base)}); rep.Identical() {
		t.Fatal("cell-set mismatch not detected")
	}
}
