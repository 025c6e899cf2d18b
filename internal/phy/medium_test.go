package phy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// recorder is a test Listener that records PHY indications.
type recorder struct {
	received []*Frame
	txDone   int
	busyLog  []bool
}

func (r *recorder) CarrierSense(b bool) { r.busyLog = append(r.busyLog, b) }
func (r *recorder) Receive(f *Frame)    { r.received = append(r.received, f) }
func (r *recorder) TxDone(*Frame)       { r.txDone++ }

func twoRadios(t *testing.T, d float64) (*sim.Sim, *Medium, *Radio, *Radio, *recorder, *recorder) {
	t.Helper()
	s := sim.New(1)
	m := NewMedium(s, DefaultConfig())
	a := m.AddRadio(Position{})
	b := m.AddRadio(Position{X: d})
	ra, rb := &recorder{}, &recorder{}
	a.SetListener(ra)
	b.SetListener(rb)
	return s, m, a, b, ra, rb
}

func TestCleanDelivery(t *testing.T) {
	s, m, a, _, ra, rb := twoRadios(t, 50)
	f := &Frame{Src: 0, Dst: 1, Kind: KindData, Bytes: 1000, Rate: Rate11}
	m.Transmit(a, f)
	s.Run(sim.Second)
	if len(rb.received) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(rb.received))
	}
	if ra.txDone != 1 {
		t.Fatalf("sender TxDone fired %d times, want 1", ra.txDone)
	}
	c := m.Counters(0, 1)
	if c.Sent != 1 || c.Received != 1 {
		t.Fatalf("counters = %+v", *c)
	}
}

func TestOutOfRangeNoDelivery(t *testing.T) {
	s, m, a, _, _, rb := twoRadios(t, 5000)
	m.Transmit(a, &Frame{Src: 0, Dst: 1, Kind: KindData, Bytes: 1000, Rate: Rate1})
	s.Run(sim.Second)
	if len(rb.received) != 0 {
		t.Fatal("frame delivered far beyond radio range")
	}
}

func TestCarrierSenseTransitions(t *testing.T) {
	s, m, a, _, _, rb := twoRadios(t, 50)
	m.Transmit(a, &Frame{Src: 0, Dst: 1, Kind: KindData, Bytes: 1000, Rate: Rate11})
	s.Run(sim.Second)
	if len(rb.busyLog) != 2 || !rb.busyLog[0] || rb.busyLog[1] {
		t.Fatalf("busy transitions = %v, want [true false]", rb.busyLog)
	}
}

func TestSenderSensesOwnTransmission(t *testing.T) {
	s, m, a, _, ra, _ := twoRadios(t, 50)
	m.Transmit(a, &Frame{Src: 0, Dst: 1, Kind: KindData, Bytes: 1000, Rate: Rate11})
	if !a.CSBusy() {
		t.Fatal("transmitter does not sense itself busy")
	}
	s.Run(sim.Second)
	if a.CSBusy() {
		t.Fatal("still busy after transmission ended")
	}
	if len(ra.busyLog) != 2 {
		t.Fatalf("sender busy transitions = %v", ra.busyLog)
	}
}

// Two equal-power transmitters colliding at a middle receiver must destroy
// both frames (no capture margin).
func TestCollisionAtEqualPower(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultConfig())
	a := m.AddRadio(Position{X: -50})
	c := m.AddRadio(Position{})
	b := m.AddRadio(Position{X: 50})
	rc := &recorder{}
	c.SetListener(rc)
	m.Transmit(a, &Frame{Src: 0, Dst: 1, Kind: KindData, Bytes: 1000, Rate: Rate11})
	m.Transmit(b, &Frame{Src: 2, Dst: 1, Kind: KindData, Bytes: 1000, Rate: Rate11})
	s.Run(sim.Second)
	if len(rc.received) != 0 {
		t.Fatalf("receiver decoded %d frames from an equal-power collision", len(rc.received))
	}
	if m.Counters(0, 1).SINRDrop != 1 {
		t.Fatalf("collision not recorded: %+v", *m.Counters(0, 1))
	}
}

// A strong local frame must survive a weak distant interferer (capture).
func TestCaptureStrongFrameSurvives(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultConfig())
	a := m.AddRadio(Position{})               // sender
	b := m.AddRadio(Position{X: 20})          // receiver, very close
	i := m.AddRadio(Position{X: 20, Y: 1000}) // distant interferer
	rb := &recorder{}
	b.SetListener(rb)
	m.Transmit(a, &Frame{Src: 0, Dst: 1, Kind: KindData, Bytes: 1000, Rate: Rate1})
	m.Transmit(i, &Frame{Src: 2, Dst: Broadcast, Kind: KindData, Bytes: 1000, Rate: Rate1})
	s.Run(sim.Second)
	if len(rb.received) != 1 {
		t.Fatal("strong frame did not capture over weak interferer")
	}
}

// Preamble capture: a much stronger frame arriving later steals the receiver.
func TestPreambleCaptureRelock(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultConfig())
	far := m.AddRadio(Position{X: 120})
	rx := m.AddRadio(Position{})
	near := m.AddRadio(Position{X: 10})
	rr := &recorder{}
	rx.SetListener(rr)
	// Weak frame starts first, strong frame arrives mid-reception.
	m.Transmit(far, &Frame{Src: 0, Dst: 1, Kind: KindData, Bytes: 1400, Rate: Rate1})
	s.After(sim.Millisecond, func() {
		m.Transmit(near, &Frame{Src: 2, Dst: 1, Kind: KindData, Bytes: 200, Rate: Rate1})
	})
	s.Run(sim.Second)
	if len(rr.received) != 1 || rr.received[0].Src != 2 {
		t.Fatalf("received = %v, want only the strong frame from src 2", rr.received)
	}
}

func TestHalfDuplexReceiverTransmitting(t *testing.T) {
	s, m, a, b, _, rb := twoRadios(t, 50)
	m.Transmit(b, &Frame{Src: 1, Dst: Broadcast, Kind: KindProbe, Bytes: 1400, Rate: Rate1})
	m.Transmit(a, &Frame{Src: 0, Dst: 1, Kind: KindData, Bytes: 100, Rate: Rate11})
	s.Run(sim.Second)
	if len(rb.received) != 0 {
		t.Fatal("radio decoded a frame while transmitting")
	}
	if m.Counters(0, 1).Unlocked != 1 {
		t.Fatalf("unlocked loss not counted: %+v", *m.Counters(0, 1))
	}
}

func TestChannelErrorLossRateMatchesBER(t *testing.T) {
	s := sim.New(42)
	m := NewMedium(s, DefaultConfig())
	a := m.AddRadio(Position{})
	b := m.AddRadio(Position{X: 40})
	rb := &recorder{}
	b.SetListener(rb)
	const bytes = 1000
	ber := 2e-5
	m.SetBER(0, 1, ber)
	const n = 2000
	for k := 0; k < n; k++ {
		k := k
		s.At(sim.Time(k)*20*sim.Millisecond, func() {
			m.Transmit(a, &Frame{Src: 0, Dst: 1, Kind: KindData, Bytes: bytes, Rate: Rate11, Seq: int64(k)})
		})
	}
	s.Run(sim.Time(n+1) * 20 * sim.Millisecond)
	want := m.ChannelLossProb(0, 1, bytes+MACHeaderBytes)
	got := 1 - float64(len(rb.received))/n
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("empirical loss %v, analytic %v", got, want)
	}
}

func TestChannelLossProbMonotoneInLength(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultConfig())
	m.AddRadio(Position{})
	m.AddRadio(Position{X: 10})
	m.SetBER(0, 1, 1e-5)
	if m.ChannelLossProb(0, 1, 100) >= m.ChannelLossProb(0, 1, 1400) {
		t.Fatal("longer frames must be lossier")
	}
}

func TestBroadcastReachesAllInRange(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultConfig())
	a := m.AddRadio(Position{})
	recs := make([]*recorder, 4)
	for k := 0; k < 4; k++ {
		r := m.AddRadio(Position{X: 30 * float64(k+1)})
		recs[k] = &recorder{}
		r.SetListener(recs[k])
	}
	m.Transmit(a, &Frame{Src: 0, Dst: Broadcast, Kind: KindProbe, Bytes: 500, Rate: Rate1})
	s.Run(sim.Second)
	for k, r := range recs {
		if len(r.received) != 1 {
			t.Fatalf("radio %d received %d broadcasts, want 1", k+1, len(r.received))
		}
	}
}

func TestRxPowerDecreasesWithDistance(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultConfig())
	m.AddRadio(Position{})
	m.AddRadio(Position{X: 10})
	m.AddRadio(Position{X: 100})
	if m.RxPowerDBm(0, 1) <= m.RxPowerDBm(0, 2) {
		t.Fatal("closer radio must receive more power")
	}
}

func TestShadowReducesPower(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultConfig())
	pos := []Position{{}, {X: 50}, {X: -50}}
	for _, p := range pos {
		m.AddRadio(p)
	}
	m.SetGainTable(BuildGainTable(DefaultConfig(), pos, map[[2]int]float64{{0, 2}: 20}))
	if math.Abs(m.RxPowerDBm(0, 1)-m.RxPowerDBm(0, 2)-20) > 1e-9 {
		t.Fatal("20 dB shadow not applied")
	}
	if m.RxPowerDBm(0, 2) != m.RxPowerDBm(2, 0) {
		t.Fatal("shadow not symmetric")
	}
}

func TestPropertyDBmMWRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		dbm := math.Mod(math.Abs(x), 120) - 100 // [-100, 20)
		return math.Abs(MWToDBm(DBmToMW(dbm))-dbm) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// chainSender puts its next frame on the air from inside TxDone, while
// the transmission that just ended is still checked out of the pool.
type chainSender struct {
	recorder
	m    *Medium
	r    *Radio
	left int
}

func (c *chainSender) TxDone(f *Frame) {
	c.txDone++
	if c.left--; c.left > 0 {
		c.m.Transmit(c.r, f)
	}
}

func TestTransmissionsAreReusedAcrossBackToBackFrames(t *testing.T) {
	s, m, a, b, _, rb := twoRadios(t, 50)
	const frames = 500
	snd := &chainSender{m: m, r: a, left: frames}
	a.SetListener(snd)
	f := &Frame{Src: 0, Dst: 1, Kind: KindData, Bytes: 200, Rate: Rate11}
	m.Transmit(a, f)
	s.Run(sim.Second)
	if snd.txDone != frames || len(rb.received) != frames {
		t.Fatalf("TxDone %d, received %d; want %d each", snd.txDone, len(rb.received), frames)
	}
	// Each frame overlaps only the end-of-air callback of the one before.
	if n := len(m.txFree); n != 2 {
		t.Fatalf("%d transmissions pooled after %d back-to-back frames, want 2", n, frames)
	}
	for _, r := range []*Radio{a, b} {
		if len(r.arrivals) != 0 || r.lock.tx != nil {
			t.Fatalf("radio %d still references a released transmission", r.id)
		}
	}
	b.SetListener(nil) // the recorder appends
	if allocs := testing.AllocsPerRun(10, func() {
		snd.left = 10
		m.Transmit(a, f)
		s.Run(s.Now() + sim.Second)
	}); allocs != 0 {
		t.Fatalf("%v allocations per 10 frames on a warm medium, want 0", allocs)
	}
}
