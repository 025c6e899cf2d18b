// Package phy models the 802.11b/g physical layer: modulation rates and
// their airtime cost, log-distance radio propagation with shadowing, and a
// shared medium that delivers frames between radios using an SINR reception
// model with physical-layer capture.
//
// The paper's evaluation runs 802.11g hardware at the 1 Mb/s and 11 Mb/s
// DSSS/CCK modulations with RTS/CTS disabled; this package reproduces those
// timings (long-preamble DSSS PLCP, 20 us slots) and adds the ERP-OFDM
// rates for completeness.
package phy

import (
	"fmt"

	"repro/internal/sim"
)

// Rate identifies an 802.11 modulation data rate.
type Rate int

// Supported modulation rates. Rate1 and Rate11 are the ones exercised by
// the paper's evaluation.
const (
	Rate1   Rate = iota // 1 Mb/s DSSS (DBPSK)
	Rate2               // 2 Mb/s DSSS (DQPSK)
	Rate5_5             // 5.5 Mb/s CCK
	Rate11              // 11 Mb/s CCK
	Rate6               // 6 Mb/s ERP-OFDM
	Rate12              // 12 Mb/s ERP-OFDM
	Rate24              // 24 Mb/s ERP-OFDM
	Rate54              // 54 Mb/s ERP-OFDM
	numRates
)

// rateInfo captures the per-rate constants used by the airtime and
// reception models.
type rateInfo struct {
	name    string
	bps     float64 // payload bits per second
	minSINR float64 // dB required to decode
	ofdm    bool
}

var rates = [numRates]rateInfo{
	Rate1:   {"1Mbps", 1e6, 4.0, false},
	Rate2:   {"2Mbps", 2e6, 7.0, false},
	Rate5_5: {"5.5Mbps", 5.5e6, 9.0, false},
	Rate11:  {"11Mbps", 11e6, 12.0, false},
	Rate6:   {"6Mbps", 6e6, 8.0, true},
	Rate12:  {"12Mbps", 12e6, 11.0, true},
	Rate24:  {"24Mbps", 24e6, 16.0, true},
	Rate54:  {"54Mbps", 54e6, 25.0, true},
}

// String implements fmt.Stringer.
func (r Rate) String() string {
	if r < 0 || r >= numRates {
		return fmt.Sprintf("Rate(%d)", int(r))
	}
	return rates[r].name
}

// MinSINRdB returns the SINR, in dB, required to decode a frame sent at r.
// Higher modulations need cleaner channels, which is what makes capture
// stronger at 1 Mb/s than at 11 Mb/s in the paper's IA/NF topologies.
func (r Rate) MinSINRdB() float64 { return rates[r].minSINR }

// Valid reports whether r names a supported rate.
func (r Rate) Valid() bool { return r >= 0 && r < numRates }

// 802.11b/g MAC/PHY timing constants (long-slot compatibility mode, long
// DSSS preamble), matching the Bianchi-style analyses the paper builds on.
const (
	SlotTime     = 20 * sim.Microsecond
	SIFS         = 10 * sim.Microsecond
	DIFS         = SIFS + 2*SlotTime // 50 us
	PLCPPreamble = 144 * sim.Microsecond
	PLCPHeader   = 48 * sim.Microsecond
	// OFDM frames use a much shorter preamble.
	OFDMPreamble = 20 * sim.Microsecond

	// CWMin and CWMax are the 802.11b contention window bounds; the
	// backoff stage m at which the window stops doubling follows from
	// them (CWMax = 2^m * (CWMin+1) - 1 with m = 5).
	CWMin = 31
	CWMax = 1023

	// MACHeaderBytes is the size of an 802.11 data header plus FCS.
	MACHeaderBytes = 28
	// ACKBytes is the size of an 802.11 ACK control frame.
	ACKBytes = 14
)

// Airtime returns the time occupied on the medium by a frame carrying
// payloadBytes of MAC payload (the MAC header and FCS are added here) at
// rate r, including the PLCP preamble and header.
func Airtime(r Rate, payloadBytes int) sim.Time {
	bits := float64(8 * (payloadBytes + MACHeaderBytes))
	return plcp(r) + sim.Time(bits/rates[r].bps*1e9)
}

// ControlAirtime returns the airtime of a control frame (e.g. an ACK) of
// frameBytes total bytes at rate r. Control frames carry no MAC data
// header beyond their own fixed format.
func ControlAirtime(r Rate, frameBytes int) sim.Time {
	bits := float64(8 * frameBytes)
	return plcp(r) + sim.Time(bits/rates[r].bps*1e9)
}

func plcp(r Rate) sim.Time {
	if rates[r].ofdm {
		return OFDMPreamble
	}
	return PLCPPreamble + PLCPHeader
}

// ControlRate returns the basic rate used to answer a frame received at r:
// DSSS/CCK frames are acknowledged at 1 Mb/s, OFDM frames at 6 Mb/s. The
// paper's probing system mirrors this by sending ACK-emulating broadcast
// probes at 1 Mb/s.
func ControlRate(r Rate) Rate {
	if rates[r].ofdm {
		return Rate6
	}
	return Rate1
}
