package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs/span"
)

// summary is how every timing is reported: a median with its quartiles
// and the sample count.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics of an
// ascending slice (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func summarize(v []float64) summary {
	s := sorted(v)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(v []float64) float64 { return summarize(v).Median }

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported: fewer, and the figure is one or two outliers.
const minBeyond = 10

// percentile is the nearest-rank percentile (p in (0,100)): the
// smallest sample with at least p % of the samples at or below it. It
// refuses — ok false — when fewer than minBeyond samples lie beyond it.
func percentile(v []float64, p float64) (value float64, ok bool) {
	if len(v) == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	s := sorted(v)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	if len(s)-rank < minBeyond {
		return 0, false
	}
	return s[rank-1], true
}

// mustPercentile is percentile for probes sized so the refusal cannot
// happen; it reports the shortfall as an error rather than a number.
func mustPercentile(name string, v []float64, p float64) (float64, error) {
	x, ok := percentile(v, p)
	if !ok {
		return 0, fmt.Errorf("%s: p%g needs more than %d samples beyond it, have %d samples in all", name, p, minBeyond, len(v))
	}
	return x, nil
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of its interval its direct children cover.
// Children may overlap each other (parallel cells under one fan-out),
// so their intervals are unioned, and clipped to the parent's.
func selfTimes(spans []span.SpanData) map[string]time.Duration {
	children := map[int][]span.SpanData{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.Dur - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span.SpanData, kids []span.SpanData) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End()
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End() {
			b = parent.End()
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// histogramQuantile estimates a quantile from cumulative histogram
// buckets (upper bound, cumulative count) by linear interpolation
// inside the bucket the rank falls in — the usual Prometheus estimate.
// Observations above the last bound are reported as that bound.
func histogramQuantile(bounds []float64, cum []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	prevBound, prevCount := 0.0, 0.0
	for i, le := range bounds {
		c := float64(cum[i])
		if c >= rank {
			if c == prevCount {
				return le
			}
			return prevBound + (le-prevBound)*(rank-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = le, c
	}
	return prevBound
}
