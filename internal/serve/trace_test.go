package serve

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs/span"
)

// TestTraceEndpoint: a completed job exports its span subtree as
// Chrome trace-event JSON (the default) and as the JSONL span log; both
// parse back to the same canonical tree, which carries the serve-side
// lifecycle (cache lookup, queue wait, run) down to the engine's
// per-cell spans. A cache-hit resubmission gets its own trace whose
// tree records the hit instead of a run.
func TestTraceEndpoint(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Options{})

	first := postJob(t, ts, `{"experiment":"servetoy","seed":71}`)
	getRecords(t, ts, first.ID, "") // wait for completion

	code, body := get(t, ts, "/v1/jobs/"+first.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d\n%s", code, body)
	}
	chromeSpans, err := span.Parse(strings.NewReader(body))
	if err != nil {
		t.Fatalf("trace not parseable Chrome JSON: %v\n%s", err, body)
	}
	tree := span.Tree(chromeSpans)
	for _, want := range []string{"job{", "cache.lookup", "queued", "run", "exp.run{", "cell{", "reduce"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("trace tree missing %q:\n%s", want, tree)
		}
	}
	if !strings.Contains(tree, "cache=miss") {
		t.Fatalf("computed job's root span not marked cache=miss:\n%s", tree)
	}

	code, jsonl := get(t, ts, "/v1/jobs/"+first.ID+"/trace?format=jsonl")
	if code != http.StatusOK {
		t.Fatalf("GET trace?format=jsonl: status %d", code)
	}
	jsonlSpans, err := span.Parse(strings.NewReader(jsonl))
	if err != nil {
		t.Fatalf("jsonl trace not parseable: %v\n%s", err, jsonl)
	}
	if got := span.Tree(jsonlSpans); got != tree {
		t.Fatalf("jsonl and chrome exports disagree:\njsonl:\n%s\nchrome:\n%s", got, tree)
	}

	if code, _ := get(t, ts, "/v1/jobs/"+first.ID+"/trace?format=xml"); code != http.StatusBadRequest {
		t.Fatalf("bad format: status %d, want 400", code)
	}

	// A resubmission while the job is resident coalesces onto it: the
	// same trace, now with a coalesced marker.
	second := postJob(t, ts, `{"experiment":"servetoy","seed":71}`)
	if second.Created || second.ID != first.ID {
		t.Fatalf("repeat submission did not coalesce: %+v", second)
	}
	if _, body := get(t, ts, "/v1/jobs/"+first.ID+"/trace"); !strings.Contains(body, "coalesced") {
		t.Fatalf("coalesced resubmission left no span:\n%s", body)
	}

	// Drop the job from the table (keeping its cache entry) and resubmit:
	// the job is reborn from the cache, and its fresh trace records the
	// hit — lookup plus the replayed reduction, no run.
	s.mu.Lock()
	delete(s.jobs, first.ID)
	s.mu.Unlock()
	third := postJob(t, ts, `{"experiment":"servetoy","seed":71}`)
	if third.Created {
		t.Fatal("post-eviction resubmission should have been a cache hit")
	}
	code, hitBody := get(t, ts, "/v1/jobs/"+third.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET cache-hit trace: status %d", code)
	}
	hitSpans, err := span.Parse(strings.NewReader(hitBody))
	if err != nil {
		t.Fatalf("cache-hit trace not parseable: %v", err)
	}
	hitTree := span.Tree(hitSpans)
	if !strings.Contains(hitTree, "cache=hit") || !strings.Contains(hitTree, "cache.lookup") {
		t.Fatalf("cache-hit trace not marked as a hit:\n%s", hitTree)
	}
	if strings.Contains(hitTree, "exp.run{") {
		t.Fatalf("cache-hit trace contains a run:\n%s", hitTree)
	}
}

// TestCoalescedSpanIsOnePerJob: attaches to a resident job are marked by
// one "coalesced" span carrying their count, not by a span each — a hot
// key must not grow the recorder for as long as its job stays resident.
func TestCoalescedSpanIsOnePerJob(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Options{})
	const body = `{"experiment":"servetoy","seed":73}`
	first := postJob(t, ts, body)
	getRecords(t, ts, first.ID, "") // wait for completion

	postJob(t, ts, body)
	after1 := len(s.trace.Snapshot())
	for i := 0; i < 99; i++ {
		if sr := postJob(t, ts, body); sr.Created || sr.ID != first.ID {
			t.Fatalf("resubmission %d did not coalesce: %+v", i, sr)
		}
	}
	if n := len(s.trace.Snapshot()); n != after1 {
		t.Fatalf("recorder grew from %d to %d spans over 99 more attaches", after1, n)
	}
	var marks []span.SpanData
	for _, d := range s.trace.Snapshot() {
		if d.Name == "coalesced" {
			marks = append(marks, d)
		}
	}
	if len(marks) != 1 || marks[0].Attr("count") != "100" {
		t.Fatalf("coalesced markers after 100 attaches: %+v", marks)
	}
}
