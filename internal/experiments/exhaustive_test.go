package experiments

import (
	"io"
	"testing"
)

func TestExhaustiveVsMISRegion(t *testing.T) {
	sc := tinyScale()
	res := run[ExhaustiveResult](t, exhaustiveExp{}, 5, sc)
	if res.Sampled == 0 || len(res.MeasuredPoints) != 7 {
		t.Fatalf("bad run: %d samples, %d points", res.Sampled, len(res.MeasuredPoints))
	}
	// The MIS construction must agree with the exhaustively measured
	// region on most of the space...
	if res.MISAgreement < 0.7 {
		t.Fatalf("agreement %.2f too low", res.MISAgreement)
	}
	// ...and err on the conservative side when it disagrees (the
	// paper's FNs-not-FPs property).
	if res.MISConservative < 0.7 {
		t.Fatalf("MIS region over-estimates: conservative fraction %.2f", res.MISConservative)
	}
	res.Print(io.Discard)
}
