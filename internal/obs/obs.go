// Package obs is the fleet observability layer: a dependency-free
// metrics registry (counters, gauges, histograms) plus structured event
// logging on log/slog, exposed as Prometheus text, a JSON snapshot, and
// pprof handlers.
//
// The one hard invariant every consumer relies on: observability is
// strictly out-of-band. Metrics and log events ride side channels (an
// in-memory registry scraped over HTTP, a logger writing to stderr) and
// never touch a record stream, so the byte-identity contract — the
// record bytes of a run are a pure function of (experiment, seed,
// scale), for any worker count, shard split or resume point — holds
// bit-for-bit whether observability is enabled, disabled, or scraped
// mid-run. Tests race exactly that.
//
// Determinism of the registry itself: a Snapshot orders metric families
// by name and series by label values, and a histogram's bucket counts
// are a pure function of the multiset of observed values (bucket bounds
// are fixed at registration; assignment is value <= bound). Only a
// histogram's Sum is subject to float addition order across concurrent
// observers — bucket counts and Count never are.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families. The zero value is not usable;
// create with NewRegistry. Default is the process-wide registry every
// instrumented package registers into.
type Registry struct {
	enabled atomic.Bool // collection switch; exposure is the caller's concern

	mu    sync.Mutex
	fams  map[string]*family
	hooks []func() // run before every Snapshot (scrape-time refreshers)

	procOnce sync.Once // RegisterProcessMetrics guard
}

// Default is the process-wide registry. Instrumented packages register
// their metrics here at init; the serve layer and the -metrics-addr
// sidecars expose it.
var Default = NewRegistry()

// NewRegistry creates an empty registry with collection enabled.
func NewRegistry() *Registry {
	r := &Registry{fams: map[string]*family{}}
	r.enabled.Store(true)
	return r
}

// SetEnabled flips metric collection. Disabled, every Add/Set/Observe
// is a single atomic load and a branch — the transparency benchmarkable
// "off" state. Exposure handlers still serve whatever was collected.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether collection is on.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// family is one named metric family: a type, a help string, a label
// schema, and the series instantiated under it.
type family struct {
	reg     *Registry
	name    string
	help    string
	typ     string // "counter", "gauge" or "histogram"
	labels  []string
	buckets []float64 // histogram upper bounds, sorted, no +Inf

	mu     sync.Mutex
	series map[string]any // label-value key -> *Counter/*Gauge/*Histogram
	order  []string       // insertion-ordered keys (sorted at snapshot)
}

// getFamily registers (or finds) a family, panicking on a schema
// conflict: two packages disagreeing on what a metric name means is a
// programming error worth failing loudly over.
func (r *Registry) getFamily(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v (was %s%v)", name, typ, labels, f.typ, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with labels %v (was %v)", name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		reg: r, name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		series: map[string]any{},
	}
	if typ == "histogram" {
		f.buckets = append([]float64(nil), buckets...)
		sort.Float64s(f.buckets)
	}
	r.fams[name] = f
	return f
}

// labelKey joins label values into the series map key. \xff cannot
// appear in a sane label value; collisions would only merge series.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

func (f *family) get(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// --- counter ----------------------------------------------------------

// Counter is a monotonically increasing float64 (Prometheus counter
// semantics). Safe for concurrent use.
type Counter struct {
	reg  *Registry
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are ignored: counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 || !c.reg.enabled.Load() {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Counter registers (or finds) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or finds) a counter family with the given label
// schema; With instantiates one series.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.getFamily(name, help, "counter", labels, nil)}
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the series for the given label values, creating it on
// first use. Hold the returned handle on hot paths — With costs a map
// lookup under the family lock.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() any { return &Counter{reg: v.f.reg} }).(*Counter)
}

// --- gauge ------------------------------------------------------------

// Gauge is a float64 that can go up and down. Safe for concurrent use.
type Gauge struct {
	reg  *Registry
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if !g.reg.enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) {
	if !g.reg.enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers (or finds) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or finds) a gauge family with the given label
// schema.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.getFamily(name, help, "gauge", labels, nil)}
}

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() any { return &Gauge{reg: v.f.reg} }).(*Gauge)
}

// --- histogram --------------------------------------------------------

// Histogram counts observations into fixed buckets (value <= bound).
// Bucket counts and Count are a deterministic function of the observed
// multiset; Sum is subject to float addition order under concurrency.
// Safe for concurrent use.
type Histogram struct {
	reg     *Registry
	bounds  []float64 // sorted upper bounds; +Inf implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !h.reg.enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the le-bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram registers (or finds) an unlabelled histogram over the given
// bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or finds) a histogram family with the given
// label schema.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.getFamily(name, help, "histogram", labels, buckets)}
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With returns the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() any {
		return &Histogram{
			reg:    v.f.reg,
			bounds: v.f.buckets,
			counts: make([]atomic.Uint64, len(v.f.buckets)+1),
		}
	}).(*Histogram)
}

// TimeBuckets is the default wall-time bucket layout (seconds): 100µs to
// ~100s, quarter-decade steps.
func TimeBuckets() []float64 {
	return []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30, 100}
}

// --- snapshot ---------------------------------------------------------

// Snapshot is a point-in-time view of a registry, deterministically
// ordered: families sorted by name, series by label values. It is the
// payload of both the Prometheus text endpoint and the JSON stats
// endpoint.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family in a Snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one series of a family: Value for counters and
// gauges; Count/Sum/Buckets for histograms.
type SeriesSnapshot struct {
	Labels  []Label  `json:"labels,omitempty"`
	Value   float64  `json:"value"`
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Label is one name=value label pair, in schema order.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Bucket is one cumulative histogram bucket: the count of observations
// <= LE. The +Inf bucket is implicit (it equals Count).
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Snapshot captures the registry. Concurrent with observers it is a
// consistent-enough view (each series read atomically, monotonic
// counters may be mid-update across series); quiescent it is exact and
// deterministic.
// AddSnapshotHook registers fn to run at the start of every Snapshot
// (and therefore every Prometheus scrape), before the registry lock is
// taken — the place to refresh gauges whose value is a function of
// scrape time, like process uptime.
func (r *Registry) AddSnapshotHook(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make([]*family, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		snap.Families = append(snap.Families, f.snapshot())
	}
	return snap
}

func (f *family) snapshot() FamilySnapshot {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()
	sort.Sort(&keyedSeries{keys: keys, series: series})

	fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
	for i, k := range keys {
		var labels []Label
		if len(f.labels) > 0 {
			values := strings.Split(k, "\xff")
			labels = make([]Label, len(f.labels))
			for j, name := range f.labels {
				labels[j] = Label{Name: name, Value: values[j]}
			}
		}
		ss := SeriesSnapshot{Labels: labels}
		switch m := series[i].(type) {
		case *Counter:
			ss.Value = m.Value()
		case *Gauge:
			ss.Value = m.Value()
		case *Histogram:
			ss.Count = m.count.Load()
			ss.Sum = math.Float64frombits(m.sumBits.Load())
			var cum uint64
			ss.Buckets = make([]Bucket, len(m.bounds))
			for j, le := range m.bounds {
				cum += m.counts[j].Load()
				ss.Buckets[j] = Bucket{LE: le, Count: cum}
			}
		}
		fs.Series = append(fs.Series, ss)
	}
	return fs
}

// keyedSeries sorts series parallel to their label keys.
type keyedSeries struct {
	keys   []string
	series []any
}

func (s *keyedSeries) Len() int           { return len(s.keys) }
func (s *keyedSeries) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *keyedSeries) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.series[i], s.series[j] = s.series[j], s.series[i]
}

// --- Prometheus text exposition ---------------------------------------

// WritePrometheus renders the registry in the Prometheus text format
// (version 0.0.4): # HELP/# TYPE headers, one line per series, families
// and series deterministically ordered.
func (r *Registry) WritePrometheus(w *strings.Builder) {
	snap := r.Snapshot()
	for _, f := range snap.Families {
		if f.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Series {
			switch f.Type {
			case "histogram":
				var cum uint64
				for _, b := range s.Buckets {
					cum = b.Count
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, promLabels(s.Labels, "le", formatFloat(b.LE)), cum)
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, promLabels(s.Labels, "le", "+Inf"), s.Count)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, promLabels(s.Labels), formatFloat(s.Sum))
				fmt.Fprintf(w, "%s_count%s %d\n", f.Name, promLabels(s.Labels), s.Count)
			default:
				fmt.Fprintf(w, "%s%s %s\n", f.Name, promLabels(s.Labels), formatFloat(s.Value))
			}
		}
	}
}

// promLabels renders a label set (plus an optional extra pair, for the
// histogram le label) as {a="x",b="y"}, or "" when empty.
func promLabels(labels []Label, extra ...string) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	write := func(name, value string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(value))
		b.WriteString(`"`)
	}
	for _, l := range labels {
		write(l.Name, l.Value)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		write(extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
