package phy

// GainTable is a frozen matrix of pairwise received powers in mW,
// indexed [src*n+dst]. A table is immutable once built — the medium only
// reads it — so one table can back any number of concurrently running
// simulations that share a mesh layout (see internal/topology/cache).
type GainTable struct {
	n  int
	mw []float64
}

// BuildGainTable computes the pairwise-gain table for radios at the
// given positions under cfg. shadowDB maps unordered node pairs (lower
// id first) to a symmetric extra loss in dB; nil means no shadowing.
// The result is a pure function of its arguments, which is what makes
// cached tables interchangeable with cold builds.
func BuildGainTable(cfg Config, pos []Position, shadowDB map[[2]int]float64) *GainTable {
	n := len(pos)
	t := &GainTable{n: n, mw: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := pos[i].Distance(pos[j])
			pl := cfg.Prop.PathLossDB(d, shadowDB[pairKey(i, j)])
			t.mw[i*n+j] = DBmToMW(cfg.TxPowerDBm - pl)
		}
	}
	return t
}
