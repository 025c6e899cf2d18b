// Package mac implements the 802.11 Distributed Coordination Function
// (DCF): carrier sensing with DIFS deferral, slotted binary exponential
// backoff, unicast DATA/ACK exchange with a retry limit, and unacknowledged
// broadcast frames (used by the paper's network-layer probing system).
//
// Modelling notes, relative to the full standard:
//   - RTS/CTS is not implemented; the paper's testbed disables it.
//   - Every frame transmission is preceded by DIFS plus a random backoff
//     drawn from the current contention window (the Bianchi saturation
//     behaviour). The standard's "transmit immediately if idle for DIFS"
//     shortcut only matters at light load, where it merely removes a small
//     constant access delay.
//   - EIFS after corrupted receptions is not modelled.
package mac

import (
	"math/rand"

	"repro/internal/phy"
	"repro/internal/sim"
)

// DefaultRetryLimit is the 802.11 long retry limit.
const DefaultRetryLimit = 7

// DefaultQueueCap is the interface queue depth.
const DefaultQueueCap = 64

// ackTimeoutMargin pads the ACK timeout beyond SIFS + ACK airtime.
const ackTimeoutMargin = phy.SlotTime

// Callbacks connect the MAC to the layer above it.
type Callbacks struct {
	// Receive delivers frames addressed to this station or broadcast,
	// with MAC-level retransmission duplicates already filtered.
	Receive func(f *phy.Frame)
	// Sent fires when a frame leaves the MAC: acknowledged (ok=true),
	// dropped after the retry limit (ok=false), or, for broadcast
	// frames, transmitted (ok=true).
	Sent func(f *phy.Frame, ok bool)
}

// Stats counts MAC-level events for one station.
type Stats struct {
	Attempts   int64 // data transmissions put on the air (incl. retries)
	Successes  int64 // frames acknowledged or broadcast completed
	Drops      int64 // frames dropped at the retry limit
	QueueDrops int64 // frames rejected by a full interface queue
	AcksSent   int64
	DupsRx     int64 // duplicate data frames suppressed
}

type state int

const (
	stIdle state = iota
	stWaitIdle
	stDIFS
	stBackoff
	stTx
	stWaitAck
)

// MAC is one station's DCF instance, attached to a PHY radio.
type MAC struct {
	s     *sim.Sim
	med   *phy.Medium
	radio *phy.Radio
	rng   *rand.Rand
	cb    Callbacks

	// Tunables, set before traffic starts.
	RetryLimit int
	QueueCap   int

	queue []*phy.Frame
	txSeq int64

	state      state
	cur        *phy.Frame
	stage      int
	retries    int
	backoff    int
	difs       sim.Timer
	slot       sim.Timer
	ackTimeout sim.Timer

	// The SIFS response is single-flight (ackQueued || sendingAck guards
	// it through TxDone), so one ACK frame and one callback per station
	// are reused.
	ack        phy.Frame
	sendAckFn  sim.Event
	sendingAck bool
	ackQueued  bool

	lastSeq map[int]int64 // per-source dedup of immediate retransmissions

	Stats Stats
}

// New attaches a DCF MAC to radio on med.
func New(med *phy.Medium, radio *phy.Radio, cb Callbacks) *MAC {
	m := &MAC{
		s:          med.Sim(),
		med:        med,
		radio:      radio,
		rng:        med.Sim().NewStream(),
		cb:         cb,
		RetryLimit: DefaultRetryLimit,
		QueueCap:   DefaultQueueCap,
		lastSeq:    make(map[int]int64),
	}
	m.difs = m.s.NewTimer(m.onDIFSDone)
	m.slot = m.s.NewTimer(m.onSlot)
	m.ackTimeout = m.s.NewTimer(m.onAckTimeout)
	m.sendAckFn = m.sendAck
	radio.SetListener(m)
	return m
}

// ID returns the station id (the radio id).
func (m *MAC) ID() int { return m.radio.ID() }

// QueueLen returns the number of frames waiting in the interface queue,
// including the frame currently being served.
func (m *MAC) QueueLen() int { return len(m.queue) }

// Enqueue adds a frame to the interface queue. It reports false and drops
// the frame when the queue is full. The MAC stamps the sequence number.
func (m *MAC) Enqueue(f *phy.Frame) bool {
	if len(m.queue) >= m.QueueCap {
		m.Stats.QueueDrops++
		return false
	}
	m.txSeq++
	f.Seq = m.txSeq
	f.Src = m.ID()
	m.queue = append(m.queue, f)
	if m.state == stIdle {
		m.serveNext()
	}
	return true
}

func (m *MAC) serveNext() {
	if len(m.queue) == 0 {
		m.state = stIdle
		m.cur = nil
		return
	}
	m.cur = m.queue[0]
	m.stage = 0
	m.retries = 0
	m.drawBackoff()
	m.startAccess()
}

func (m *MAC) cw() int {
	cw := (phy.CWMin+1)<<m.stage - 1
	if cw > phy.CWMax {
		cw = phy.CWMax
	}
	return cw
}

func (m *MAC) drawBackoff() { m.backoff = m.rng.Intn(m.cw() + 1) }

func (m *MAC) startAccess() {
	if m.radio.CSBusy() {
		m.state = stWaitIdle
		return
	}
	m.beginDIFS()
}

func (m *MAC) beginDIFS() {
	m.state = stDIFS
	m.difs.Reset(phy.DIFS)
}

func (m *MAC) onDIFSDone() {
	m.state = stBackoff
	if m.backoff == 0 {
		m.attemptTx()
		return
	}
	m.slot.Reset(phy.SlotTime)
}

func (m *MAC) onSlot() {
	m.backoff--
	if m.backoff == 0 {
		m.attemptTx()
		return
	}
	m.slot.Reset(phy.SlotTime)
}

func (m *MAC) attemptTx() {
	if m.sendingAck || m.ackQueued || m.radio.Transmitting() {
		// The SIFS-priority ACK response owns the radio. Park in
		// stWaitIdle: the ACK's own transmission drives a busy->idle
		// carrier-sense transition that resumes channel access.
		m.state = stWaitIdle
		return
	}
	m.state = stTx
	m.Stats.Attempts++
	m.med.Transmit(m.radio, m.cur)
}

// CarrierSense implements phy.Listener.
func (m *MAC) CarrierSense(busy bool) {
	if busy {
		switch m.state {
		case stDIFS:
			m.difs.Stop()
			m.state = stWaitIdle
		case stBackoff:
			m.slot.Stop()
			m.state = stWaitIdle
		}
		return
	}
	if m.state == stWaitIdle {
		m.beginDIFS()
	}
}

// TxDone implements phy.Listener.
func (m *MAC) TxDone(f *phy.Frame) {
	if f.Kind == phy.KindAck {
		m.sendingAck = false
		return
	}
	if f != m.cur || m.state != stTx {
		return
	}
	if f.Broadcast() {
		m.Stats.Successes++
		m.finish(true)
		return
	}
	ackDur := phy.ControlAirtime(phy.ControlRate(f.Rate), phy.ACKBytes)
	m.state = stWaitAck
	m.ackTimeout.Reset(phy.SIFS + ackDur + ackTimeoutMargin)
}

func (m *MAC) onAckTimeout() {
	m.retries++
	if m.retries > m.RetryLimit {
		m.Stats.Drops++
		m.finish(false)
		return
	}
	m.stage++ // cw() clamps the window at CWMax
	m.drawBackoff()
	m.startAccess()
}

func (m *MAC) finish(ok bool) {
	f := m.cur
	// Copy down rather than re-slice: the head stays at the start of the
	// backing array, so Enqueue's append never has to reallocate and the
	// sent frame is not kept reachable behind the window.
	n := copy(m.queue, m.queue[1:])
	m.queue[n] = nil
	m.queue = m.queue[:n]
	m.cur = nil
	if m.cb.Sent != nil {
		m.cb.Sent(f, ok)
	}
	// The upper layer may have refilled the queue inside Sent; serve
	// whatever is at the head now.
	m.serveNext()
}

// Receive implements phy.Listener.
func (m *MAC) Receive(f *phy.Frame) {
	switch {
	case f.Kind == phy.KindAck:
		if f.Dst != m.ID() {
			return
		}
		if m.state == stWaitAck && m.cur != nil && f.Src == m.cur.Dst && f.Seq == m.cur.Seq {
			m.ackTimeout.Stop()
			m.Stats.Successes++
			m.finish(true)
		}
	case f.Broadcast():
		if m.cb.Receive != nil {
			m.cb.Receive(f)
		}
	case f.Dst == m.ID():
		m.scheduleAck(f)
		if m.lastSeq[f.Src] == f.Seq {
			m.Stats.DupsRx++
			return
		}
		m.lastSeq[f.Src] = f.Seq
		if m.cb.Receive != nil {
			m.cb.Receive(f)
		}
	}
}

func (m *MAC) scheduleAck(data *phy.Frame) {
	if m.ackQueued || m.sendingAck {
		return // one SIFS response at a time; the sender will retry
	}
	m.ackQueued = true
	m.ack = phy.Frame{
		Src:   m.ID(),
		Dst:   data.Src,
		Kind:  phy.KindAck,
		Bytes: phy.ACKBytes,
		Rate:  phy.ControlRate(data.Rate),
		Seq:   data.Seq,
	}
	m.s.Schedule(m.s.Now()+phy.SIFS, m.sendAckFn)
}

func (m *MAC) sendAck() {
	m.ackQueued = false
	if m.radio.Transmitting() {
		return
	}
	m.sendingAck = true
	m.Stats.AcksSent++
	m.med.Transmit(m.radio, &m.ack)
}
