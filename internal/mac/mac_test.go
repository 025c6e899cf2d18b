package mac

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

type upper struct {
	received []*phy.Frame
	sentOK   []*phy.Frame
	sentFail []*phy.Frame
}

func (u *upper) callbacks() Callbacks {
	return Callbacks{
		Receive: func(f *phy.Frame) { u.received = append(u.received, f) },
		Sent: func(f *phy.Frame, ok bool) {
			if ok {
				u.sentOK = append(u.sentOK, f)
			} else {
				u.sentFail = append(u.sentFail, f)
			}
		},
	}
}

func pair(t *testing.T, d float64) (*sim.Sim, *phy.Medium, *MAC, *MAC, *upper, *upper) {
	t.Helper()
	s := sim.New(11)
	med := phy.NewMedium(s, phy.DefaultConfig())
	ra := med.AddRadio(phy.Position{})
	rb := med.AddRadio(phy.Position{X: d})
	ua, ub := &upper{}, &upper{}
	return s, med, New(med, ra, ua.callbacks()), New(med, rb, ub.callbacks()), ua, ub
}

func data(dst, bytes int, r phy.Rate) *phy.Frame {
	return &phy.Frame{Dst: dst, Kind: phy.KindData, Bytes: bytes, Rate: r}
}

func TestUnicastDeliveryAndAck(t *testing.T) {
	s, _, ma, _, ua, ub := pair(t, 50)
	ma.Enqueue(data(1, 500, phy.Rate11))
	s.Run(sim.Second)
	if len(ub.received) != 1 {
		t.Fatalf("received %d frames, want 1", len(ub.received))
	}
	if len(ua.sentOK) != 1 || len(ua.sentFail) != 0 {
		t.Fatalf("sender reports ok=%d fail=%d", len(ua.sentOK), len(ua.sentFail))
	}
	if ma.Stats.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (clean channel)", ma.Stats.Attempts)
	}
}

func TestBroadcastNoAckNoRetry(t *testing.T) {
	s, _, ma, mb, _, ub := pair(t, 50)
	_ = mb
	f := &phy.Frame{Dst: phy.Broadcast, Kind: phy.KindProbe, Bytes: 100, Rate: phy.Rate1}
	ma.Enqueue(f)
	s.Run(sim.Second)
	if len(ub.received) != 1 {
		t.Fatal("broadcast not delivered")
	}
	if mb.Stats.AcksSent != 0 {
		t.Fatal("broadcast must not be acknowledged")
	}
	if ma.Stats.Attempts != 1 {
		t.Fatalf("attempts = %d", ma.Stats.Attempts)
	}
}

func TestRetryUnderTotalLossThenDrop(t *testing.T) {
	s, med, ma, _, ua, _ := pair(t, 50)
	med.SetBER(0, 1, 1) // every frame destroyed
	ma.Enqueue(data(1, 500, phy.Rate11))
	s.Run(10 * sim.Second)
	if len(ua.sentFail) != 1 {
		t.Fatalf("want 1 failed frame, got ok=%d fail=%d", len(ua.sentOK), len(ua.sentFail))
	}
	if got := ma.Stats.Attempts; got != int64(ma.RetryLimit)+1 {
		t.Fatalf("attempts = %d, want %d", got, ma.RetryLimit+1)
	}
}

func TestRetransmissionRecoversModerateLoss(t *testing.T) {
	s, med, ma, _, ua, ub := pair(t, 50)
	med.SetBER(0, 1, 2e-5) // ~8% frame loss at 528 bytes
	ma.QueueCap = 256
	for i := 0; i < 200; i++ {
		ma.Enqueue(data(1, 500, phy.Rate11))
	}
	s.Run(20 * sim.Second)
	if len(ua.sentOK) != 200 {
		t.Fatalf("sentOK = %d, want all 200 recovered by retries", len(ua.sentOK))
	}
	if len(ub.received) != 200 {
		t.Fatalf("received = %d (after dedup), want 200", len(ub.received))
	}
	if ma.Stats.Attempts <= 200 {
		t.Fatal("expected some retransmissions")
	}
}

func TestDuplicateSuppressionOnAckLoss(t *testing.T) {
	s, med, ma, mb, _, ub := pair(t, 50)
	med.SetBER(1, 0, 3e-3) // reverse path lossy: ACKs die often
	for i := 0; i < 50; i++ {
		ma.Enqueue(data(1, 500, phy.Rate11))
	}
	s.Run(30 * sim.Second)
	if mb.Stats.DupsRx == 0 {
		t.Fatal("expected duplicates from lost ACKs")
	}
	// Every delivered frame must be unique.
	seen := map[int64]bool{}
	for _, f := range ub.received {
		if seen[f.Seq] {
			t.Fatalf("duplicate seq %d delivered", f.Seq)
		}
		seen[f.Seq] = true
	}
}

func TestQueueCapEnforced(t *testing.T) {
	_, _, ma, _, _, _ := pair(t, 50)
	ma.QueueCap = 4
	accepted := 0
	for i := 0; i < 10; i++ {
		if ma.Enqueue(data(1, 100, phy.Rate11)) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d, want 4", accepted)
	}
	if ma.Stats.QueueDrops != 6 {
		t.Fatalf("queue drops = %d, want 6", ma.Stats.QueueDrops)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	s, _, ma, _, _, ub := pair(t, 50)
	for i := 0; i < 20; i++ {
		ma.Enqueue(data(1, 200, phy.Rate11))
	}
	s.Run(5 * sim.Second)
	if len(ub.received) != 20 {
		t.Fatalf("received %d", len(ub.received))
	}
	for i := 1; i < len(ub.received); i++ {
		if ub.received[i].Seq <= ub.received[i-1].Seq {
			t.Fatal("frames delivered out of order")
		}
	}
}

// Two stations within CS range sending to a common receiver must not
// collide (beyond rare slot ties): carrier sense serializes them.
func TestCarrierSenseSerializesNeighbors(t *testing.T) {
	s := sim.New(3)
	med := phy.NewMedium(s, phy.DefaultConfig())
	r0 := med.AddRadio(phy.Position{X: -40})
	r1 := med.AddRadio(phy.Position{})
	r2 := med.AddRadio(phy.Position{X: 40})
	u0, u1, u2 := &upper{}, &upper{}, &upper{}
	m0 := New(med, r0, u0.callbacks())
	New(med, r1, u1.callbacks())
	m2 := New(med, r2, u2.callbacks())
	m0.QueueCap, m2.QueueCap = 256, 256
	const n = 150
	for i := 0; i < n; i++ {
		m0.Enqueue(data(1, 700, phy.Rate11))
		m2.Enqueue(data(1, 700, phy.Rate11))
	}
	s.Run(10 * sim.Second)
	total := m0.Stats.Attempts + m2.Stats.Attempts
	// Retries indicate collisions; with CS they must be a small fraction.
	retries := total - 2*n
	if float64(retries) > 0.15*float64(total) {
		t.Fatalf("retry fraction %.2f too high for CS neighbors", float64(retries)/float64(total))
	}
	if len(u1.received) != 2*n {
		t.Fatalf("receiver got %d/%d frames", len(u1.received), 2*n)
	}
}

// Saturation throughput of a clean 11 Mb/s link must approach the
// well-known analytic DCF limit (~6 Mb/s with 1470-byte UDP payload and
// long preamble).
func TestSaturationThroughput11Mbps(t *testing.T) {
	s, _, ma, _, ua, ub := pair(t, 50)
	stop := false
	fill := func() {
		for ma.QueueLen() < 3 && !stop {
			ma.Enqueue(data(1, 1470, phy.Rate11))
		}
	}
	ma.cb = Callbacks{
		Receive: func(f *phy.Frame) { ub.received = append(ub.received, f) },
		Sent:    func(f *phy.Frame, ok bool) { fill() },
	}
	fill()
	const dur = 5 * sim.Second
	s.Run(dur)
	stop = true
	_ = ua
	bps := float64(len(ub.received)) * 1470 * 8 / dur.Seconds()
	// Analytic: cycle = DIFS + E[backoff]*slot + preamble + (1470+28)*8/11 us
	//                 + SIFS + ACK(304us) ~ 1955 us -> ~6.01 Mb/s.
	if bps < 5.6e6 || bps > 6.4e6 {
		t.Fatalf("saturation throughput = %.2f Mb/s, want ~6.0", bps/1e6)
	}
}

func TestSaturationThroughput1Mbps(t *testing.T) {
	s, _, ma, _, _, ub := pair(t, 50)
	fill := func() {
		for ma.QueueLen() < 3 {
			ma.Enqueue(data(1, 1470, phy.Rate1))
		}
	}
	ma.cb = Callbacks{
		Receive: func(f *phy.Frame) {},
		Sent:    func(f *phy.Frame, ok bool) { fill() },
	}
	mb := ub // receiver records via its own callbacks already set
	_ = mb
	// Re-wire receiver side: recreate recording.
	fill()
	const dur = 5 * sim.Second
	s.Run(dur)
	// Count via MAC stats instead of upper hook (simpler here).
	bps := float64(ma.Stats.Successes) * 1470 * 8 / dur.Seconds()
	// Analytic cycle ~ 12850 us -> ~0.915 Mb/s.
	if bps < 0.85e6 || bps > 0.97e6 {
		t.Fatalf("saturation throughput = %.3f Mb/s, want ~0.915", bps/1e6)
	}
}

// TestEventCountPinned fixes the kernel work of one seeded contention
// run: two saturated carrier-sensing senders on lossy links to a common
// receiver, so backoff slots, DIFS restarts, ACK timeouts and retries
// all contribute. The record streams cannot see an event that fires and
// does nothing; this can. A change here means the MAC's event model
// changed (e.g. one expiry event per backoff instead of one per slot)
// and must be deliberate.
func TestEventCountPinned(t *testing.T) {
	s := sim.New(3)
	med := phy.NewMedium(s, phy.DefaultConfig())
	r0 := med.AddRadio(phy.Position{X: -40})
	r1 := med.AddRadio(phy.Position{})
	r2 := med.AddRadio(phy.Position{X: 40})
	med.SetBER(0, 1, 2e-5)
	med.SetBER(2, 1, 2e-5)
	var senders [2]*MAC
	for i, r := range []*phy.Radio{r0, r2} {
		senders[i] = New(med, r, Callbacks{Sent: func(*phy.Frame, bool) {
			for senders[i].QueueLen() < 3 {
				senders[i].Enqueue(data(1, 1470, phy.Rate11))
			}
		}})
	}
	New(med, r1, Callbacks{})
	for _, m := range senders {
		m.Enqueue(data(1, 1470, phy.Rate11))
	}
	s.Run(2 * sim.Second)

	st := s.Stats()
	attempts := senders[0].Stats.Attempts + senders[1].Stats.Attempts
	const wantFired, wantCancelled, wantAttempts = 30210, 2663, 1089
	if st.Fired != wantFired || st.Cancelled != wantCancelled || attempts != wantAttempts {
		t.Fatalf("fired %d cancelled %d attempts %d; want %d %d %d",
			st.Fired, st.Cancelled, attempts, wantFired, wantCancelled, wantAttempts)
	}
	if st.HeapHighWater > 16 {
		t.Fatalf("heap reached %d entries with three stations", st.HeapHighWater)
	}
}
