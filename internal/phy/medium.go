package phy

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// Broadcast is the destination id used by broadcast frames (probes).
const Broadcast = -1

// Kind labels the role of a frame on the air.
type Kind int

// Frame kinds.
const (
	KindData Kind = iota
	KindAck
	KindProbe // network-layer broadcast probe
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindProbe:
		return "probe"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Frame is a unit of transmission on the medium. Bytes counts MAC payload
// for data/probe frames and the whole frame for control frames.
type Frame struct {
	Src, Dst int
	Kind     Kind
	Bytes    int
	Rate     Rate
	Seq      int64
	Payload  any
}

// Broadcast reports whether the frame is addressed to all stations.
func (f *Frame) Broadcast() bool { return f.Dst == Broadcast }

// Airtime returns the on-air duration of the frame.
func (f *Frame) Airtime() sim.Time {
	if f.Kind == KindAck {
		return ControlAirtime(f.Rate, f.Bytes)
	}
	return Airtime(f.Rate, f.Bytes)
}

// Listener receives PHY indications. The MAC implements this.
type Listener interface {
	// CarrierSense reports medium busy/idle transitions as seen by this
	// radio's energy detector (own transmissions count as busy).
	CarrierSense(busy bool)
	// Receive delivers a successfully decoded frame. Frames addressed to
	// other stations are delivered too; the MAC filters.
	Receive(f *Frame)
	// TxDone fires when this radio's transmission leaves the air.
	TxDone(f *Frame)
}

// LossCause labels why a frame was not delivered in a Decision.
type LossCause int

// Loss causes, in Decision order. CauseNone marks a delivered frame.
const (
	CauseNone     LossCause = iota // delivered
	CauseSINR                      // interference/fading below decode threshold
	CauseChannel                   // Bernoulli channel-error process
	CauseUnlocked                  // receiver never locked (busy, transmitting, weak)
)

func (c LossCause) String() string {
	switch c {
	case CauseNone:
		return "delivered"
	case CauseSINR:
		return "sinr"
	case CauseChannel:
		return "channel"
	case CauseUnlocked:
		return "unlocked"
	}
	return fmt.Sprintf("LossCause(%d)", int(c))
}

// Decision is one per-link delivery decision: the outcome of a frame at
// one receiving radio. Unicast frames decide at their intended
// destination; broadcast frames decide once per radio that locked onto
// them (Dst is the observer's id). Overheard unicast frames — decodable
// at a third party — are not decisions: the link src->dst is the unit
// the paper's model predicts.
type Decision struct {
	T         sim.Time
	Src, Dst  int
	Seq       int64
	Kind      Kind
	Rate      Rate
	Bytes     int
	Delivered bool
	Cause     LossCause // CauseNone iff Delivered
}

// Tracer observes every per-link delivery decision the medium makes.
// Decide is called from the simulator's event loop in deterministic
// order (arrival-end processing iterates radios in id order), so an
// append-only tracer records the same sequence on every run of the same
// seed.
type Tracer interface {
	Decide(d Decision)
}

// Channel is the loss-decision interface behind the Bernoulli
// channel-error draw. The default stochastic channel consumes exactly
// one rng draw iff p > 0; any replacement must mirror that contract —
// the same rng stream feeds the fade draws, so an unmirrored draw
// shifts every later reception. p is the channel loss probability the
// medium computed for this frame on src->dst.
type Channel interface {
	Lost(f *Frame, dst int, p float64, rng *rand.Rand) bool
}

// LinkCounters tallies per-directed-link PHY outcomes, used by tests and
// by experiments that need ground-truth loss breakdowns.
type LinkCounters struct {
	Sent        int64 // frames transmitted toward this destination
	Received    int64 // frames decoded by the destination
	SINRDrop    int64 // frames lost to interference (collisions/capture failure)
	ChannelDrop int64 // frames lost to the Bernoulli channel-error process
	Unlocked    int64 // frames that never locked (receiver busy or too weak)
}

// Config bundles the radio parameters shared by every node in a network.
type Config struct {
	TxPowerDBm  float64 // transmit power (the testbed fixes 19 dBm)
	NoiseDBm    float64 // thermal noise floor
	CSThreshDBm float64 // energy-detection carrier-sense threshold
	LockSensDBm float64 // minimum power to lock onto a frame
	CaptureDB   float64 // preamble-capture margin for re-locking
	// FadeSigmaDB adds zero-mean Gaussian fading (in dB) to the SINR of
	// each reception. Fast fading is what turns marginal capture into
	// the *partial* interference the paper measures (LIRs between 0.5
	// and 1); zero disables it.
	FadeSigmaDB float64
	Prop        Propagation
}

// DefaultConfig mirrors the testbed's fixed 19 dBm transmit power with
// typical Atheros-era receiver characteristics.
func DefaultConfig() Config {
	return Config{
		TxPowerDBm:  19,
		NoiseDBm:    -95,
		CSThreshDBm: -92, // preamble-detection CS: sense range covers decode range
		LockSensDBm: -92,
		CaptureDB:   5, // message-in-message relock margin
		FadeSigmaDB: 2,
		Prop:        DefaultPropagation(),
	}
}

// Medium is the shared wireless channel. It owns every radio, computes
// pairwise gains from the propagation model (or takes them from a
// prebuilt table that folds in per-pair shadowing), and
// implements the SINR reception model with physical-layer capture.
//
// Propagation delay is ignored (sub-microsecond at mesh scale) and frames
// arrive at all radios at the instant transmission starts.
//
// Per-directed-link state consulted on the per-frame receive path (link
// counters, channel error rates) lives in dense slices indexed by radio
// id once the medium freezes; the map forms exist only for staging before
// the radio count is known.
type Medium struct {
	sim     *sim.Sim
	cfg     Config
	noiseMW float64
	capture float64 // linear capture factor
	lockMW  float64 // linear lock sensitivity
	csMW    float64 // linear carrier-sense threshold
	rng     *rand.Rand

	radios []*Radio
	ber    map[[2]int]float64 // staging for per-directed-link bit error rates
	gain   [][]float64        // cached rx power in mW; built lazily
	table  *GainTable         // frozen gain table backing gain (possibly shared)

	// Dense [src*n+dst] mirrors, built when the medium freezes.
	ln1mBER  []float64 // log1p(-ber); 0 means a clean link
	counters []LinkCounters

	tracer  Tracer  // optional per-link decision hook; nil = off
	channel Channel // optional loss-decision override; nil = stochastic

	txFree []*transmission // transmissions off the air, for reuse
}

// NewMedium creates an empty medium on the given simulator.
func NewMedium(s *sim.Sim, cfg Config) *Medium {
	return &Medium{
		sim:     s,
		cfg:     cfg,
		noiseMW: DBmToMW(cfg.NoiseDBm),
		capture: DBmToMW(cfg.CaptureDB), // dB ratio -> linear
		lockMW:  DBmToMW(cfg.LockSensDBm),
		csMW:    DBmToMW(cfg.CSThreshDBm),
		rng:     s.NewStream(),
		ber:     make(map[[2]int]float64),
	}
}

// Sim returns the simulator driving this medium.
func (m *Medium) Sim() *sim.Sim { return m.sim }

// SetTracer installs (or, with nil, removes) the per-link decision hook.
// Capture is free when off: the receive path pays one nil check.
func (m *Medium) SetTracer(t Tracer) { m.tracer = t }

// SetChannel replaces the stochastic Bernoulli channel-error process
// with c (nil restores the default). Replay media install their
// recorded trace here.
func (m *Medium) SetChannel(c Channel) { m.channel = c }

// Config returns the radio configuration.
func (m *Medium) Config() Config { return m.cfg }

// AddRadio creates a radio at pos. All radios must be added before the
// first transmission; the gain matrix is frozen on first use.
func (m *Medium) AddRadio(pos Position) *Radio {
	if m.gain != nil {
		panic("phy: AddRadio after medium in use")
	}
	r := &Radio{
		id:  len(m.radios),
		pos: pos,
		m:   m,
	}
	m.radios = append(m.radios, r)
	return r
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// SetBER sets the channel bit error rate on the directed link a->b.
// Frame loss from channel errors is 1-(1-ber)^bits, so longer frames
// (DATA) suffer more than short ones (ACK), as in real links.
func (m *Medium) SetBER(a, b int, ber float64) {
	m.ber[[2]int{a, b}] = ber
	if m.ln1mBER != nil {
		m.ln1mBER[a*len(m.radios)+b] = math.Log1p(-ber)
	}
}

// ChannelLossProb returns the probability that a frame of frameBytes total
// bytes is lost to channel errors on a->b. This is the simulator's ground
// truth against which the paper's channel-loss estimator is scored.
func (m *Medium) ChannelLossProb(a, b int, frameBytes int) float64 {
	var ln float64
	if m.ln1mBER != nil {
		ln = m.ln1mBER[a*len(m.radios)+b]
	} else if ber := m.ber[[2]int{a, b}]; ber > 0 {
		ln = math.Log1p(-ber)
	}
	if ln == 0 {
		return 0
	}
	// 1-(1-ber)^bits computed through Expm1 to spare a Pow per frame.
	return -math.Expm1(float64(8*frameBytes) * ln)
}

// FadeLossProb returns the probability that a frame at rate r on a->b is
// lost to fading alone (clean channel, no interference): the chance the
// per-reception Gaussian fade pushes the SNR below the decode threshold.
func (m *Medium) FadeLossProb(a, b int, r Rate) float64 {
	snr := m.RxPowerDBm(a, b) - m.cfg.NoiseDBm
	margin := snr - r.MinSINRdB()
	if m.cfg.FadeSigmaDB <= 0 {
		if margin >= 0 {
			return 0
		}
		return 1
	}
	// P(N(0,sigma) < -margin) via the complementary error function.
	return 0.5 * math.Erfc(margin/(m.cfg.FadeSigmaDB*math.Sqrt2))
}

// FrameLossProb combines the Bernoulli channel-error process and fading
// into the total clean-channel frame loss on a->b — the ground truth the
// paper's channel-loss estimator is trying to recover.
func (m *Medium) FrameLossProb(a, b int, r Rate, frameBytes int) float64 {
	pBits := m.ChannelLossProb(a, b, frameBytes)
	pFade := m.FadeLossProb(a, b, r)
	return 1 - (1-pBits)*(1-pFade)
}

// GainMW returns the received power at radio b when radio a transmits.
func (m *Medium) GainMW(a, b int) float64 {
	m.freeze()
	return m.gain[a][b]
}

// RxPowerDBm returns the received power in dBm at b when a transmits.
func (m *Medium) RxPowerDBm(a, b int) float64 { return MWToDBm(m.GainMW(a, b)) }

// SetGainTable installs a precomputed gain table, sparing the O(n²)
// path-loss rebuild when many simulations share one mesh layout. It must
// be called before the medium freezes, and the table must have been
// built for the same radio count, positions, shadowing and config the
// medium would otherwise compute from — the topology cache guarantees
// this by keying tables on the layout inputs.
func (m *Medium) SetGainTable(t *GainTable) {
	if m.gain != nil {
		panic("phy: SetGainTable after medium in use")
	}
	m.table = t
}

// freeze builds the gain matrix and the dense per-link mirrors; radios
// can no longer be added afterwards.
func (m *Medium) freeze() {
	if m.gain != nil {
		return
	}
	n := len(m.radios)
	if m.table == nil {
		pos := make([]Position, n)
		for i, r := range m.radios {
			pos[i] = r.pos
		}
		m.table = BuildGainTable(m.cfg, pos, nil)
	} else if m.table.n != n {
		panic(fmt.Sprintf("phy: gain table built for %d radios, medium has %d", m.table.n, n))
	}
	m.gain = make([][]float64, n) // non-nil marks the medium frozen
	for i := range m.gain {
		m.gain[i] = m.table.mw[i*n : (i+1)*n]
	}
	m.ln1mBER = make([]float64, n*n)
	for k, ber := range m.ber {
		if ber > 0 {
			m.ln1mBER[k[0]*n+k[1]] = math.Log1p(-ber)
		}
	}
	m.counters = make([]LinkCounters, n*n)
}

// Counters returns the counter block for a->b. Calling it freezes the
// medium (radios must all have been added).
func (m *Medium) Counters(a, b int) *LinkCounters {
	m.freeze()
	return &m.counters[a*len(m.radios)+b]
}

// transmission is a frame in flight. Transmissions are pooled on the
// medium: one is taken per Transmit and returned when its end-of-air
// event has run, by which point no radio's arrivals or lock names it.
type transmission struct {
	frame *Frame
	src   *Radio
	end   sim.Time
	endFn sim.Event // m.endOfAir(tx), bound once per pooled object
}

// Transmit puts f on the air from radio r. The MAC must ensure r is not
// already transmitting. TxDone fires on r's listener when the frame ends.
func (m *Medium) Transmit(r *Radio, f *Frame) {
	if r.transmitting {
		panic("phy: Transmit while already transmitting")
	}
	m.freeze()
	var tx *transmission
	if n := len(m.txFree); n > 0 {
		tx = m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
	} else {
		tx = new(transmission)
		tx.endFn = func() { m.endOfAir(tx) }
	}
	tx.frame, tx.src, tx.end = f, r, m.sim.Now()+f.Airtime()
	r.transmitting = true
	r.updateCS()
	if !f.Broadcast() {
		m.Counters(f.Src, f.Dst).Sent++
	}
	// A radio cannot receive while transmitting: abort any lock in progress.
	if r.lock.tx != nil {
		r.lock = reception{}
	}
	for _, o := range m.radios {
		if o == r {
			continue
		}
		p := m.gain[r.id][o.id]
		if p < m.noiseMW/100 {
			continue // far below noise: no observable effect
		}
		o.arrivalStart(tx, p)
	}
	m.sim.Schedule(tx.end, tx.endFn)
}

// endOfAir takes tx off the air: every radio that saw it settles its
// reception, then the sender is told. TxDone may call Transmit again, so
// tx goes back to the pool only after it returns.
func (m *Medium) endOfAir(tx *transmission) {
	r, f := tx.src, tx.frame
	for _, o := range m.radios {
		if o == r {
			continue
		}
		o.arrivalEnd(tx)
	}
	r.transmitting = false
	r.updateCS()
	if r.listener != nil {
		r.listener.TxDone(f)
	}
	tx.frame, tx.src = nil, nil
	m.txFree = append(m.txFree, tx)
}

// channelLost decides the channel-error outcome for a decoded frame on
// src->dst: the installed Channel if any, else one Bernoulli draw
// (consumed iff p > 0 — replacements must mirror this, see Channel).
func (m *Medium) channelLost(f *Frame, dst int) bool {
	bytes := f.Bytes
	if f.Kind != KindAck {
		bytes += MACHeaderBytes
	}
	p := m.ChannelLossProb(f.Src, dst, bytes)
	if m.channel != nil {
		return m.channel.Lost(f, dst, p, m.rng)
	}
	return p > 0 && m.rng.Float64() < p
}

// arrival is one frame currently on the air as seen by a radio.
type arrival struct {
	tx *transmission
	p  float64 // received power, mW
}

// Radio is one station's PHY. All state transitions are driven by the
// medium; the MAC interacts through Transmit, CSBusy and the Listener.
type Radio struct {
	id  int
	pos Position
	m   *Medium

	listener Listener

	transmitting bool
	busy         bool // last CS indication

	sensedMW float64
	// arrivals holds the frames currently on the air at this radio. A
	// small slice beats a map here: the receive path scans it per frame,
	// and a slice also gives interference sums a deterministic order
	// (map iteration would randomize float rounding run to run).
	arrivals []arrival

	lock reception
}

// reception tracks the frame a radio is locked onto and the worst
// interference it experienced. A zero tx means no lock.
type reception struct {
	tx          *transmission
	powerMW     float64
	maxInterfMW float64
}

// ID returns the radio's id (index on the medium).
func (r *Radio) ID() int { return r.id }

// SetListener attaches the MAC.
func (r *Radio) SetListener(l Listener) { r.listener = l }

// CSBusy reports whether the energy detector currently senses the medium
// busy (own transmissions included).
func (r *Radio) CSBusy() bool { return r.transmitting || r.sensedMW >= r.m.csMW }

// Transmitting reports whether the radio is mid-transmission.
func (r *Radio) Transmitting() bool { return r.transmitting }

func (r *Radio) updateCS() {
	now := r.CSBusy()
	if now != r.busy {
		r.busy = now
		if r.listener != nil {
			r.listener.CarrierSense(now)
		}
	}
}

func (r *Radio) interference(except *transmission) float64 {
	var sum float64
	for i := range r.arrivals {
		if r.arrivals[i].tx != except {
			sum += r.arrivals[i].p
		}
	}
	return sum
}

func (r *Radio) arrivalStart(tx *transmission, p float64) {
	r.arrivals = append(r.arrivals, arrival{tx: tx, p: p})
	r.sensedMW += p
	lockSens := r.m.lockMW
	switch {
	case r.transmitting:
		// Half-duplex: the frame is interference for later, nothing to do.
	case r.lock.tx == nil && p >= lockSens:
		r.lock = reception{tx: tx, powerMW: p, maxInterfMW: r.interference(tx)}
	case r.lock.tx != nil && p >= lockSens && p >= r.lock.powerMW*r.m.capture:
		// Preamble capture: a much stronger late arrival steals the
		// receiver. The previous frame is lost.
		r.countLoss(r.lock.tx, lossSINR)
		r.trace(r.lock.tx, false, CauseSINR)
		r.lock = reception{tx: tx, powerMW: p, maxInterfMW: r.interference(tx)}
	case r.lock.tx != nil:
		if i := r.interference(r.lock.tx); i > r.lock.maxInterfMW {
			r.lock.maxInterfMW = i
		}
	default:
		// Too weak to lock: pure interference.
	}
	r.updateCS()
}

type lossKind int

const (
	lossSINR lossKind = iota
	lossChannel
	lossUnlocked
)

func (r *Radio) countLoss(tx *transmission, k lossKind) {
	f := tx.frame
	if f.Broadcast() || f.Dst != r.id {
		return
	}
	c := r.m.Counters(f.Src, f.Dst)
	switch k {
	case lossSINR:
		c.SINRDrop++
	case lossChannel:
		c.ChannelDrop++
	case lossUnlocked:
		c.Unlocked++
	}
}

// trace reports one delivery decision for tx at this radio to the
// installed tracer. Unicast frames trace only at their intended
// destination; broadcast frames trace at every radio that locked onto
// them (Dst is the observer). With no tracer installed the cost is one
// nil check.
func (r *Radio) trace(tx *transmission, delivered bool, cause LossCause) {
	t := r.m.tracer
	if t == nil {
		return
	}
	f := tx.frame
	if !f.Broadcast() && f.Dst != r.id {
		return // overheard unicast: not a per-link decision
	}
	t.Decide(Decision{
		T:         r.m.sim.Now(),
		Src:       f.Src,
		Dst:       r.id,
		Seq:       f.Seq,
		Kind:      f.Kind,
		Rate:      f.Rate,
		Bytes:     f.Bytes,
		Delivered: delivered,
		Cause:     cause,
	})
}

func (r *Radio) arrivalEnd(tx *transmission) {
	idx := -1
	for i := range r.arrivals {
		if r.arrivals[i].tx == tx {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	p := r.arrivals[idx].p
	last := len(r.arrivals) - 1
	r.arrivals[idx] = r.arrivals[last]
	r.arrivals[last] = arrival{}
	r.arrivals = r.arrivals[:last]
	r.sensedMW -= p
	if r.sensedMW < 0 {
		r.sensedMW = 0
	}
	if r.lock.tx == tx {
		r.finishReception()
	} else if r.lock.tx == nil && (tx.frame.Dst == r.id) {
		// The intended receiver never locked (busy, transmitting, or
		// the signal was too weak).
		r.countLoss(tx, lossUnlocked)
		r.trace(tx, false, CauseUnlocked)
	}
	r.updateCS()
}

func (r *Radio) finishReception() {
	rec := r.lock
	r.lock = reception{}
	f := rec.tx.frame
	sinrDB := MWToDBm(rec.powerMW / (r.m.noiseMW + rec.maxInterfMW))
	if sigma := r.m.cfg.FadeSigmaDB; sigma > 0 {
		sinrDB += r.m.rng.NormFloat64() * sigma
	}
	if sinrDB < f.Rate.MinSINRdB() {
		r.countLoss(rec.tx, lossSINR)
		r.trace(rec.tx, false, CauseSINR)
		return
	}
	if r.m.channelLost(f, r.id) {
		r.countLoss(rec.tx, lossChannel)
		r.trace(rec.tx, false, CauseChannel)
		return
	}
	if !f.Broadcast() && f.Dst == r.id {
		r.m.Counters(f.Src, f.Dst).Received++
	}
	r.trace(rec.tx, true, CauseNone)
	if r.listener != nil {
		r.listener.Receive(f)
	}
}
