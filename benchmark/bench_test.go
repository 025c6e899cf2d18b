package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/obs/span"
	"repro/internal/scenario"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // 100..1: percentile must sort
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {75, 75}, {90, 90}, {1, 1}} {
		got, ok := percentile(v, c.p)
		if !ok || got != c.want {
			t.Errorf("p%g of 1..100 = %g, %v; want %g", c.p, got, ok, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i)
	}
	if _, ok := percentile(v, 90); !ok {
		t.Error("p90 of 100 samples has 10 beyond it and must be reported")
	}
	if _, ok := percentile(v, 91); ok {
		t.Error("p91 of 100 samples has 9 beyond it and must be refused")
	}
	if _, ok := percentile(v[:99], 90); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, ok := percentile(v, 99); ok {
		t.Error("p99 of 100 samples must be refused")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("a percentile of no samples must be refused")
	}
	if _, err := mustPercentile("x", v, 99); err == nil {
		t.Error("mustPercentile must turn a refusal into an error")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Errorf("summarize(1..5) = %+v", s)
	}
	s = summarize([]float64{1, 2, 3, 4})
	if s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Errorf("summarize(1..4) = %+v", s)
	}
	if s = summarize([]float64{7}); s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 {
		t.Errorf("summarize of one sample = %+v", s)
	}
	if !math.IsNaN(summarize(nil).Median) {
		t.Error("the median of nothing is not a number")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span.SpanData{
		{ID: 1, Name: "run", Start: 0, Dur: msec(100)},
		// Two cells in parallel, overlapping on [30,50]: together they
		// cover [10,70], not 40+40.
		{ID: 2, Parent: 1, Name: "cell", Start: msec(10), Dur: msec(40)},
		{ID: 3, Parent: 1, Name: "cell", Start: msec(30), Dur: msec(40)},
		// A child that outlives its parent is clipped to it.
		{ID: 4, Parent: 1, Name: "reduce", Start: msec(90), Dur: msec(30)},
		{ID: 5, Parent: 2, Name: "io", Start: msec(20), Dur: msec(5)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"run":    msec(100 - 60 - 10),
		"cell":   msec(35 + 40),
		"reduce": msec(30),
		"io":     msec(5),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	cum := []uint64{10, 30, 40}
	if got := histogramQuantile(bounds, cum, 40, 0.5); got != 1.5 {
		t.Errorf("p50 = %g, want 1.5 (rank 20 is halfway through the (1,2] bucket)", got)
	}
	if got := histogramQuantile(bounds, cum, 50, 0.99); got != 4 {
		t.Errorf("a rank above the last bound reads %g, want the bound 4", got)
	}
	if !math.IsNaN(histogramQuantile(bounds, []uint64{0, 0, 0}, 0, 0.5)) {
		t.Error("an empty histogram has no quantile")
	}
}

func TestOpMixDeterministicAndBalanced(t *testing.T) {
	a, b := serveMixer(7), serveMixer(7)
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(a.batch(), b.batch()) {
			t.Fatalf("batch %d differs between two mixers of one seed", i)
		}
	}
	if mixHash(serveMixer(7), 4) != mixHash(serveMixer(7), 4) {
		t.Error("the mix hash of one seed changed")
	}
	if mixHash(serveMixer(7), 4) == mixHash(serveMixer(8), 4) {
		t.Error("seeds 7 and 8 deal the same op order")
	}
	m := serveMixer(7)
	cold := map[int]bool{}
	for i := 0; i < 3; i++ {
		var n [numOpClasses]int
		for _, op := range m.batch() {
			n[op.class]++
			if op.class == opCold {
				if cold[op.job] {
					t.Fatalf("cold job %d submitted twice: it would be a hit", op.job)
				}
				cold[op.job] = true
			}
		}
		if n != [numOpClasses]int{60, 25, 15} {
			t.Errorf("batch %d holds %v ops per class, want 60/25/15", i, n)
		}
	}
}

func TestRecordsSpec(t *testing.T) {
	if string(recordsSpec(3)) != string(recordsSpec(3)) {
		t.Error("one seed generated two specs")
	}
	if string(recordsSpec(3)) == string(recordsSpec(4)) {
		t.Error("seeds 3 and 4 generated the same spec")
	}
	spec, err := scenario.Parse(recordsSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(spec.Broadcast.Roots) * len(spec.Broadcast.Policies) * spec.Broadcast.Repetitions; got != 2560 {
		t.Errorf("the records sweep has %d cells, want 2560", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q: want a letter or digit, then letters, digits, '_', '.', '-', 64 at most", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, 200 at most", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics need setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		check("per-layer metric", m.Name)
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics: 128 and 16 at most", len(perLayer), len(endToEnd))
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the program
// prints from: a metric added to one and not the other is refused by
// the driver only after a full run.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, have []metric, want []metricDef, bounded bool) {
		if len(have) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program prints %d", len(have), kind, len(want))
			return
		}
		for i, m := range want {
			h := have[i]
			if h.Name != m.Name || h.Unit != m.Unit || h.Better != m.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, h, m)
			}
			if bounded && (h.Bound == nil || *h.Bound != m.Bound) {
				t.Errorf("%s: bound differs between BENCHMARK.json and the program", m.Name)
			}
			if !bounded && h.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, true)
	same("per-layer", doc.PerLayer, perLayer, false)
}
