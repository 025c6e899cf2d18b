// Package stats provides the small statistical toolkit used by the
// experiment harness: empirical CDFs, RMSE, Jain's fairness index,
// summary aggregates matching the metrics reported in the paper's
// evaluation figures, and streamable record series (CDF points,
// quantiles) that reductions can emit alongside their scalar results.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/scenario/sink"
)

// CDF is an empirical cumulative distribution over observed samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF (the input is not modified).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// Quantile returns the q-th quantile (0 <= q <= 1) by nearest rank.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Points returns up to n evenly spaced (x, F(x)) pairs for plotting.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(n-1, 1)
		out = append(out, [2]float64{c.sorted[idx], float64(idx+1) / float64(len(c.sorted))})
	}
	return out
}

// Format renders the CDF as "x f(x)" lines for terminal output.
func (c *CDF) Format(n int) string {
	var b strings.Builder
	for _, p := range c.Points(n) {
		fmt.Fprintf(&b, "%12.4f %6.3f\n", p[0], p[1])
	}
	return b.String()
}

// Series renders the CDF as up to n streamable records — one (x, p)
// point per record, cell-indexed in ascending x — under the given
// scenario and series names. Reductions emit these so a distribution
// rides the same record pipeline (JSONL/CSV sinks, the serve layer's
// streams) as per-cell results instead of living only in printed
// summaries.
func (c *CDF) Series(scenario, series string, n int) []sink.Record {
	pts := c.Points(n)
	recs := make([]sink.Record, 0, len(pts))
	for i, p := range pts {
		recs = append(recs, sink.Record{
			Scenario: scenario,
			Series:   series,
			Cell:     i,
			Fields:   []sink.Field{sink.F("x", p[0]), sink.F("p", p[1])},
		})
	}
	return recs
}

// QuantileSeries renders the named quantiles of the CDF as streamable
// records: one record per q with fields q and v = Quantile(q), in the
// order given.
func (c *CDF) QuantileSeries(scenario, series string, qs []float64) []sink.Record {
	recs := make([]sink.Record, 0, len(qs))
	for i, q := range qs {
		recs = append(recs, sink.Record{
			Scenario: scenario,
			Series:   series,
			Cell:     i,
			Fields:   []sink.Field{sink.F("q", q), sink.F("v", c.Quantile(q))},
		})
	}
	return recs
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RMSE returns the root mean squared error between predictions and truth.
func RMSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("stats: RMSE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var se float64
	for i := range pred {
		d := pred[i] - truth[i]
		se += d * d
	}
	return math.Sqrt(se / float64(len(pred)))
}

// JainIndex is Jain's fairness index: (sum x)^2 / (n * sum x^2). It is 1
// for a perfectly even allocation and 1/n for a single-winner allocation.
func JainIndex(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s, s2 float64
	for _, v := range x {
		s += v
		s2 += v * v
	}
	if s2 == 0 {
		return 0
	}
	return s * s / (float64(len(x)) * s2)
}

// Summary aggregates min/mean/max of a sample set.
type Summary struct {
	Min, Mean, Max float64
	N              int
}

// Summarize computes a Summary.
func Summarize(x []float64) Summary {
	if len(x) == 0 {
		return Summary{}
	}
	s := Summary{Min: x[0], Max: x[0], N: len(x)}
	var total float64
	for _, v := range x {
		total += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = total / float64(len(x))
	return s
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.4f min=%.4f max=%.4f n=%d", s.Mean, s.Min, s.Max, s.N)
}

// Mean returns the arithmetic mean.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var t float64
	for _, v := range x {
		t += v
	}
	return t / float64(len(x))
}
