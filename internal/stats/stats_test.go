package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0.5); got != 30 {
		t.Fatalf("median = %v", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Fatalf("q1 = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.N() != 0 || !math.IsNaN(c.Quantile(0.5)) || c.Points(3) != nil {
		t.Fatal("empty CDF misbehaves")
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	c := NewCDF([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	pts := c.Points(5)
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Fatalf("points not monotone: %v", pts)
		}
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Fatalf("zero-error RMSE = %v", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("RMSE = %v", got)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal allocation JFI = %v", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single-winner JFI = %v", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("degenerate JFI")
	}
}

func TestPropertyJainBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for i, v := range xs {
			// Map into a physically meaningful throughput range to
			// avoid float overflow in sum-of-squares.
			xs[i] = math.Mod(math.Abs(v), 1e9)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		j := JainIndex(xs)
		if len(xs) == 0 {
			return j == 0
		}
		return j >= 0 && j <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6})
	if s.Min != 2 || s.Max != 6 || math.Abs(s.Mean-4) > 1e-12 || s.N != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
}

func TestCDFSeriesRecords(t *testing.T) {
	c := NewCDF([]float64{4, 1, 3, 2})
	recs := c.Series("exp", "err_cdf", 4)
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	wantX := []float64{1, 2, 3, 4}
	wantP := []float64{0.25, 0.5, 0.75, 1}
	for i, r := range recs {
		if r.Scenario != "exp" || r.Series != "err_cdf" || r.Cell != i {
			t.Fatalf("record %d not normalized: %+v", i, r)
		}
		if r.Float("x") != wantX[i] || r.Float("p") != wantP[i] {
			t.Fatalf("record %d = (%v, %v), want (%v, %v)", i, r.Float("x"), r.Float("p"), wantX[i], wantP[i])
		}
	}
	if got := NewCDF(nil).Series("exp", "s", 4); len(got) != 0 {
		t.Fatalf("empty CDF emitted %d records", len(got))
	}
}

func TestQuantileSeriesRecords(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	recs := c.QuantileSeries("exp", "err_q", []float64{0.5, 0.9})
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Float("q") != 0.5 || recs[0].Float("v") != c.Quantile(0.5) {
		t.Fatalf("q50 record: %+v", recs[0])
	}
	if recs[1].Float("q") != 0.9 || recs[1].Float("v") != c.Quantile(0.9) || recs[1].Cell != 1 {
		t.Fatalf("q90 record: %+v", recs[1])
	}
}
