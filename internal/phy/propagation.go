package phy

import (
	"math"
)

// Position is a node location in metres. Z can encode floor separation in
// indoor deployments.
type Position struct {
	X, Y, Z float64
}

// Distance returns the Euclidean distance between two positions in metres.
func (p Position) Distance(q Position) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Propagation is a log-distance path-loss model with optional per-pair
// shadowing: PL(d) = PL0 + 10 n log10(d) + X_{ab}, where X is a fixed
// (symmetric) offset per node pair supplied by the topology. A fixed
// offset, rather than a random draw per packet, matches the quasi-static
// link qualities that the paper's minutes-timescale estimation assumes.
type Propagation struct {
	// PL0dB is the path loss at 1 metre.
	PL0dB float64
	// Exponent is the path-loss exponent n.
	Exponent float64
}

// DefaultPropagation reflects an obstructed urban/indoor environment like
// the paper's office-building testbed.
func DefaultPropagation() Propagation {
	return Propagation{PL0dB: 40, Exponent: 3.0}
}

// PathLossDB returns the path loss in dB over distance d metres with an
// extra shadowing term shadowDB. Distances under 1 m clamp to 1 m.
func (p Propagation) PathLossDB(d, shadowDB float64) float64 {
	if d < 1 {
		d = 1
	}
	return p.PL0dB + 10*p.Exponent*math.Log10(d) + shadowDB
}

// DBmToMW converts dBm to milliwatts.
func DBmToMW(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MWToDBm converts milliwatts to dBm. Zero or negative power maps to
// -infinity-ish (-300 dBm) to keep arithmetic finite.
func MWToDBm(mw float64) float64 {
	if mw <= 0 {
		return -300
	}
	return 10 * math.Log10(mw)
}
