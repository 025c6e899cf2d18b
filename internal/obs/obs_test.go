package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestVecSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("v_total", "labelled", "shard")
	a1 := v.With("0")
	a2 := v.With("0")
	b := v.With("1")
	if a1 != a2 {
		t.Fatal("same label values must return the same series")
	}
	if a1 == b {
		t.Fatal("different label values must return distinct series")
	}
	// Re-registering the same family returns the same series handles.
	if r.CounterVec("v_total", "labelled", "shard").With("0") != a1 {
		t.Fatal("re-registration must find the existing family")
	}
}

func TestRegistrationConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	for _, f := range []func(){
		func() { r.Gauge("m", "h") },
		func() { r.CounterVec("m", "h", "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("schema conflict must panic")
				}
			}()
			f()
		}()
	}
}

func TestDisabledRegistryIsInert(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 10})
	r.SetEnabled(false)
	c.Inc()
	g.Set(5)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.count.Load() != 0 {
		t.Fatal("disabled registry must drop all observations")
	}
	r.SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("re-enabled registry must collect again")
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 1.5, 5, 7, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Families[0].Series[0]
	// le=1: {0.5, 1}; le=5: +{1.5, 5}; le=10: +{7}; +Inf: 100 only in Count.
	want := []Bucket{{LE: 1, Count: 2}, {LE: 5, Count: 4}, {LE: 10, Count: 5}}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Sum != 115 {
		t.Fatalf("sum = %v, want 115", s.Sum)
	}
}

// TestHistogramSnapshotDeterminism drives the same multiset of
// observations through a histogram in shuffled order and concurrently,
// and requires identical snapshots every time: bucket counts, Count and
// (for these exactly-representable values) Sum are order-independent.
func TestHistogramSnapshotDeterminism(t *testing.T) {
	values := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		values = append(values, float64(i%37)*0.25)
	}
	var want Snapshot
	for trial := 0; trial < 5; trial++ {
		r := NewRegistry()
		h := r.HistogramVec("cell_seconds", "", []float64{0.125, 0.25, 0.5, 1, 2, 4, 8, 16}, "exp")
		rng := rand.New(rand.NewSource(int64(trial)))
		shuffled := append([]float64(nil), values...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		var wg sync.WaitGroup
		workers := 1 + trial%4
		chunk := (len(shuffled) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(shuffled))
			wg.Add(1)
			go func(vals []float64) {
				defer wg.Done()
				s := h.With("fig10")
				for _, v := range vals {
					s.Observe(v)
				}
			}(shuffled[lo:hi])
		}
		wg.Wait()

		got := r.Snapshot()
		if trial == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: snapshot diverged:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

func TestSnapshotOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "")
	v := r.CounterVec("aaa_total", "", "shard")
	v.With("2").Inc()
	v.With("0").Inc()
	v.With("1").Inc()
	snap := r.Snapshot()
	if snap.Families[0].Name != "aaa_total" || snap.Families[1].Name != "zzz_total" {
		t.Fatalf("families not sorted by name: %+v", snap.Families)
	}
	var got []string
	for _, s := range snap.Families[0].Series {
		got = append(got, s.Labels[0].Value)
	}
	if !reflect.DeepEqual(got, []string{"0", "1", "2"}) {
		t.Fatalf("series not sorted by label values: %v", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help").Add(4)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Families[0].Series[0].Value != 4 {
		t.Fatalf("round trip lost value: %s", b)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("meshopt_cache_hits_total", "Cache lookups served from the cache.").Add(3)
	r.GaugeVec("meshopt_jobs", "Jobs by state.", "state").With("running").Set(2)
	h := r.Histogram("meshopt_cell_seconds", "Cell wall time.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP meshopt_cache_hits_total Cache lookups served from the cache.\n",
		"# TYPE meshopt_cache_hits_total counter\n",
		"meshopt_cache_hits_total 3\n",
		"# TYPE meshopt_jobs gauge\n",
		`meshopt_jobs{state="running"} 2` + "\n",
		"# TYPE meshopt_cell_seconds histogram\n",
		`meshopt_cell_seconds_bucket{le="0.1"} 1` + "\n",
		`meshopt_cell_seconds_bucket{le="1"} 2` + "\n",
		`meshopt_cell_seconds_bucket{le="+Inf"} 3` + "\n",
		"meshopt_cell_seconds_sum 5.55\n",
		"meshopt_cell_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("c_total", "", "key").With(`a"b\c` + "\n").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `key="a\"b\\c\n"`) {
		t.Fatalf("label not escaped: %s", b.String())
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.CounterVec("ops_total", "", "worker")
			g := r.Gauge("depth", "")
			h := r.Histogram("lat", "", TimeBuckets())
			for i := 0; i < 500; i++ {
				c.With(fmt.Sprint(w % 3)).Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i) * 1e-4)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total float64
	for _, f := range snap.Families {
		if f.Name != "ops_total" {
			continue
		}
		for _, s := range f.Series {
			total += s.Value
		}
	}
	if total != 8*500 {
		t.Fatalf("ops_total = %v, want %d", total, 8*500)
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	for in, want := range map[string]string{"debug": "DEBUG", "info": "INFO", "warn": "WARN", "error": "ERROR"} {
		lvl, err := ParseLevel(in)
		if err != nil || lvl.String() != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, lvl, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel must reject unknown levels")
	}
	if f, err := ParseFormat("json"); err != nil || f != "json" {
		t.Fatalf("ParseFormat(json) = %q, %v", f, err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat must reject unknown formats")
	}
}

func TestLoggerFormats(t *testing.T) {
	var buf strings.Builder
	NewLogger(&buf, 0, "json").Info("evicted", "key", "abc", "bytes", 42)
	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("json log line not JSON: %v: %s", err, buf.String())
	}
	if rec["msg"] != "evicted" || rec["bytes"] != float64(42) {
		t.Fatalf("json log fields wrong: %s", buf.String())
	}
	buf.Reset()
	NewLogger(&buf, 0, "text").Info("dispatch", "shard", 1)
	if !strings.Contains(buf.String(), "msg=dispatch") || !strings.Contains(buf.String(), "shard=1") {
		t.Fatalf("text log fields wrong: %s", buf.String())
	}
	// nil and io.Discard writers must be safe no-ops.
	NewLogger(nil, 0, "text").Info("dropped")
	NewLogger(io.Discard, 0, "json").Info("dropped")
	Discard().Error("dropped")
}

func TestSidecarServesMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("meshopt_test_total", "").Add(7)
	addr, shutdown, err := Sidecar("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if !strings.Contains(get("/metrics"), "meshopt_test_total 7") {
		t.Fatal("sidecar /metrics missing counter")
	}
	if !strings.Contains(get("/debug/pprof/"), "pprof") {
		t.Fatal("sidecar pprof index not served")
	}
}
