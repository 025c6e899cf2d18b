package serve

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestMetricsEndpointSchema: after a compute and a repeat (cache-hit)
// submission, GET /metrics serves Prometheus text with nonzero cache
// and job counters, and the pprof index is reachable.
func TestMetricsEndpointSchema(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{})

	first := postJob(t, ts, `{"experiment":"servetoy","seed":61}`)
	getRecords(t, ts, first.ID, "") // wait for completion
	second := postJob(t, ts, `{"experiment":"servetoy","seed":61}`)
	if second.Created {
		t.Fatal("repeat submission should have been a cache hit")
	}

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	for _, want := range []string{
		"# TYPE meshopt_cache_hits_total counter\n",
		"# TYPE meshopt_serve_submissions_total counter\n",
		"# TYPE meshopt_serve_jobs_done_total counter\n",
		"# TYPE meshopt_runner_cell_seconds histogram\n",
		"# TYPE meshopt_queue_wait_seconds histogram\n",
		"# TYPE meshopt_build_info gauge\n",
		"# TYPE meshopt_process_uptime_seconds gauge\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The registry is process-global and other tests run first, so assert
	// nonzero rather than exact counts.
	for _, name := range []string{"meshopt_cache_hits_total", "meshopt_serve_submissions_total"} {
		nonzero := false
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok && v != "0" {
				nonzero = true
			}
		}
		if !nonzero {
			t.Errorf("/metrics: %s is zero after a cache-hit resubmission", name)
		}
	}

	// The computed submission went queued -> running, so the queue-wait
	// histogram must hold at least one observation.
	queueWaited := false
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "meshopt_queue_wait_seconds_count "); ok && v != "0" {
			queueWaited = true
		}
	}
	if !queueWaited {
		t.Error("/metrics: meshopt_queue_wait_seconds_count is zero after a computed job")
	}

	if code, body := get(t, ts, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "pprof") {
		t.Fatalf("GET /debug/pprof/: status %d", code)
	}
}

// TestStatsEndpointSchema: GET /v1/stats is a JSON snapshot with the
// documented keys, consistent with the job table.
func TestStatsEndpointSchema(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{})
	first := postJob(t, ts, `{"experiment":"servetoy","seed":62}`)
	getRecords(t, ts, first.ID, "")

	code, body := get(t, ts, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", code)
	}
	var stats statsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/v1/stats not valid JSON: %v\n%s", err, body)
	}
	if stats.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", stats.UptimeSeconds)
	}
	if stats.Jobs["done"] < 1 {
		t.Errorf("jobs.done = %d, want >= 1 (body: %s)", stats.Jobs["done"], body)
	}
	if stats.CacheEntries < 1 || stats.CacheBytes <= 0 {
		t.Errorf("cache footprint empty: entries=%d bytes=%d", stats.CacheEntries, stats.CacheBytes)
	}
	if len(stats.Metrics.Families) == 0 {
		t.Error("metrics snapshot empty")
	}
	// The embedded snapshot must be deterministically ordered by name.
	for i := 1; i < len(stats.Metrics.Families); i++ {
		if stats.Metrics.Families[i-1].Name >= stats.Metrics.Families[i].Name {
			t.Fatalf("metrics families not sorted: %q >= %q",
				stats.Metrics.Families[i-1].Name, stats.Metrics.Families[i].Name)
		}
	}
}

// TestEvictionEmitsEventAndCounter: the quota janitor's evictions are
// observable — a structured log event per evicted entry (key, bytes,
// last-validated age) and matching counters.
func TestEvictionEmitsEventAndCounter(t *testing.T) {
	dir := t.TempDir()
	var log strings.Builder
	s, ts := newTestServer(t, dir, Options{Logger: slog.New(slog.NewTextHandler(&log, nil)), CacheMaxBytes: 1})

	before := counterValue("meshopt_cache_evictions_total")
	first := postJob(t, ts, `{"experiment":"servetoy","seed":63}`)
	getRecords(t, ts, first.ID, "")

	// The only entry is pinned while its job is resident; drop the job
	// from the table so the janitor may evict, then enforce directly.
	s.mu.Lock()
	delete(s.jobs, first.ID)
	s.mu.Unlock()
	s.enforceQuota()

	if got := counterValue("meshopt_cache_evictions_total"); got <= before {
		t.Fatalf("meshopt_cache_evictions_total did not advance (%v -> %v)", before, got)
	}
	if !strings.Contains(log.String(), `msg="cache entry evicted"`) ||
		!strings.Contains(log.String(), "last_validated_age=") ||
		!strings.Contains(log.String(), "key="+first.ID) {
		t.Fatalf("eviction event missing or lacks key/bytes/age fields:\n%s", log.String())
	}
}

// counterValue reads an unlabelled counter off the default registry.
func counterValue(name string) float64 {
	for _, f := range obs.Default.Snapshot().Families {
		if f.Name == name {
			return f.Series[0].Value
		}
	}
	return 0
}

// TestInFlightDuplicateNeverReachesTheCache: a second POST of a job that
// is still running attaches from the job table alone. It counts as a
// submission and a coalesce; it is not a cache miss (there is no entry
// to miss yet), so hit ratios read off /v1/stats stay honest.
func TestInFlightDuplicateNeverReachesTheCache(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{})
	atomic.StoreInt64(&toyDelay, 20)
	defer atomic.StoreInt64(&toyDelay, 0)
	const body = `{"experiment":"servetoy","seed":67}`
	first := postJob(t, ts, body)

	names := []string{
		"meshopt_serve_submissions_total", "meshopt_serve_coalesced_total",
		"meshopt_cache_hits_total", "meshopt_cache_misses_total", "meshopt_cache_revalidations_total",
	}
	before := map[string]float64{}
	for _, n := range names {
		before[n] = counterValue(n)
	}
	dup := postJob(t, ts, body)
	if dup.Created || dup.ID != first.ID || terminal(dup.State) {
		t.Fatalf("duplicate of an in-flight job: %+v (the job must still be running for this test to mean anything)", dup)
	}
	for i, n := range names {
		want := before[n]
		if i < 2 {
			want++
		}
		if got := counterValue(n); got != want {
			t.Errorf("%s moved %v -> %v, want %v", n, before[n], got, want)
		}
	}
	getRecords(t, ts, first.ID, "") // let the job finish before the server stops
}
