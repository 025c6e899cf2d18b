package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunOrdersEventsByTime(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30*Microsecond, func() { order = append(order, 3) })
	s.At(10*Microsecond, func() { order = append(order, 1) })
	s.At(20*Microsecond, func() { order = append(order, 2) })
	s.Run(Second)
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Millisecond, func() { order = append(order, i) })
	}
	s.Run(Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("events at the same instant ran out of order: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New(1)
	var fired Time
	s.At(5*Millisecond, func() {
		s.After(2*Millisecond, func() { fired = s.Now() })
	})
	s.Run(Second)
	if fired != 7*Millisecond {
		t.Fatalf("nested After fired at %v, want 7ms", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.At(Millisecond, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	s.Run(Second)
	if ran {
		t.Fatal("cancelled event still ran")
	}
}

func TestTimerPending(t *testing.T) {
	s := New(1)
	tm := s.At(Millisecond, func() {})
	if !tm.Pending() {
		t.Fatal("timer should be pending before firing")
	}
	s.Run(Second)
	if tm.Pending() {
		t.Fatal("timer should not be pending after firing")
	}
}

func TestRunAdvancesClockToEnd(t *testing.T) {
	s := New(1)
	end := s.Run(42 * Millisecond)
	if end != 42*Millisecond {
		t.Fatalf("Run returned %v, want 42ms", end)
	}
	if s.Now() != 42*Millisecond {
		t.Fatalf("Now() = %v, want 42ms", s.Now())
	}
}

func TestRunStopsAtEndWithEventsBeyond(t *testing.T) {
	s := New(1)
	ran := false
	s.At(2*Second, func() { ran = true })
	s.Run(Second)
	if ran {
		t.Fatal("event beyond the horizon ran")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5*Millisecond, func() {})
	})
	s.Run(Second)
}

func TestDeterministicStreams(t *testing.T) {
	a, b := New(7), New(7)
	sa, sb := a.NewStream(), b.NewStream()
	for i := 0; i < 100; i++ {
		if sa.Int63() != sb.Int63() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestPropertyEventsFireInNondecreasingTimeOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(3)
		var fired []Time
		for _, d := range delays {
			s.At(Time(d)*Microsecond, func() { fired = append(fired, s.Now()) })
		}
		s.Run(Second)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStopPreventsExactlyThatEvent(t *testing.T) {
	f := func(n uint8, cancel uint8) bool {
		count := int(n%20) + 2
		c := int(cancel) % count
		s := New(5)
		fired := make([]bool, count)
		timers := make([]*Timer, count)
		for i := 0; i < count; i++ {
			i := i
			timers[i] = s.At(Time(i+1)*Millisecond, func() { fired[i] = true })
		}
		timers[c].Stop()
		s.Run(Second)
		for i := 0; i < count; i++ {
			if fired[i] == (i == c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Fatalf("String = %q", got)
	}
}

func TestTimerChurnKeepsHeapBounded(t *testing.T) {
	// A long-running prober that schedules a timeout and cancels it every
	// period used to leave every cancelled entry in the heap until its
	// far-future fire time; the purge must keep the heap near the live
	// event count instead.
	s := New(9)
	var churn func()
	rounds := 0
	churn = func() {
		rounds++
		if rounds >= 50000 {
			return
		}
		timeout := s.At(s.Now()+Second, func() {})
		s.At(s.Now()+Microsecond, func() {
			timeout.Stop()
			churn()
		})
	}
	churn()
	s.Run(Second / 2)
	if n := s.queueLen(); n > 2*purgeMin {
		t.Fatalf("heap holds %d entries after churn; cancelled timers are leaking", n)
	}
	if live := s.Pending(); live > 2 {
		t.Fatalf("%d live events remain, want <= 2", live)
	}
}

func TestStoppedTimerHandleStaysStale(t *testing.T) {
	// Once an event fires, its heap entry is recycled; the old handle
	// must keep reporting not-pending and Stop must keep returning false
	// even after the entry is reused by a later schedule.
	s := New(3)
	fired := 0
	tm := s.At(Microsecond, func() { fired++ })
	s.Run(Millisecond)
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Stop() {
		t.Fatal("Stop succeeded on a fired timer")
	}
	// Reuse the recycled entry and make sure the stale handle cannot
	// cancel the new event.
	s.At(2*Millisecond, func() { fired++ })
	if tm.Stop() {
		t.Fatal("stale handle cancelled a recycled entry")
	}
	s.Run(Second)
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
}

// model is the reference the kernel is checked against: an unordered
// list whose next event is found by scanning for the smallest (at, seq).
type model struct {
	now     Time
	seq     uint64
	pending []modelEvent
}

type modelEvent struct {
	at  Time
	seq uint64
	id  int
}

func (m *model) schedule(at Time, id int) uint64 {
	m.pending = append(m.pending, modelEvent{at, m.seq, id})
	m.seq++
	return m.seq - 1
}

// cancel removes the event scheduled under seq, reporting whether it was
// still pending.
func (m *model) cancel(seq uint64) bool {
	for i, e := range m.pending {
		if e.seq == seq {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

// run fires every event up to end in (at, seq) order, handing each to
// fire (which may schedule more).
func (m *model) run(end Time, fire func(id int)) {
	for {
		best := -1
		for i, e := range m.pending {
			if e.at > end {
				continue
			}
			if best < 0 || e.at < m.pending[best].at || (e.at == m.pending[best].at && e.seq < m.pending[best].seq) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := m.pending[best]
		m.pending = append(m.pending[:best], m.pending[best+1:]...)
		m.now = e.at
		fire(e.id)
	}
	m.now = end
}

// childDelay decides, from the id alone, whether event id schedules a
// follow-up from inside its callback and how far ahead, so the kernel
// side and the model side agree without sharing state.
func childDelay(id int) (Time, bool) {
	if id%3 != 0 {
		return 0, false
	}
	return Time(id*7%50) * Microsecond, true // 0 = same instant
}

func TestKernelMatchesReferenceModel(t *testing.T) {
	const owned = 4
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		m := &model{}

		var got, want []int
		kernelIDs, modelIDs := 0, 0
		var fireKernel func(id int) Event
		fireKernel = func(id int) Event {
			return func() {
				got = append(got, id)
				if d, ok := childDelay(id); ok {
					kernelIDs++
					s.Schedule(s.Now()+d, fireKernel(kernelIDs))
				}
			}
		}
		fireModel := func(id int) {
			want = append(want, id)
			if d, ok := childDelay(id); ok {
				modelIDs++
				m.schedule(m.now+d, modelIDs)
			}
		}
		newID := func() int {
			kernelIDs++
			modelIDs++
			return kernelIDs
		}

		type handle struct {
			t   *Timer
			seq uint64
		}
		var handles []handle
		// Owned timers bind their callback once; the id an expiry logs
		// is whatever the latest Reset stored.
		var ownedT [owned]Timer
		var ownedID [owned]int
		var ownedSeq [owned]uint64
		var ownedArmed [owned]bool
		for i := range ownedT {
			ownedT[i] = s.NewTimer(func() { fireKernel(ownedID[i])() })
		}

		for op := 0; op < 4000; op++ {
			delay := Time(rng.Intn(200)) * Microsecond
			if rng.Intn(8) == 0 {
				delay = Time(1+rng.Intn(50)) * Millisecond // far-off: cancel fodder for the purge
			}
			switch k := rng.Intn(10); {
			case k < 3:
				id := newID()
				handles = append(handles, handle{s.At(s.Now()+delay, fireKernel(id)), m.schedule(m.now+delay, id)})
			case k < 4:
				id := newID()
				s.Schedule(s.Now()+delay, fireKernel(id))
				m.schedule(m.now+delay, id)
			case k < 7 && len(handles) > 0:
				i := rng.Intn(len(handles))
				h := handles[i]
				if g, w := h.t.Pending(), contains(m, h.seq); g != w {
					t.Fatalf("seed %d op %d: Pending = %v, model %v", seed, op, g, w)
				}
				if g, w := h.t.Stop(), m.cancel(h.seq); g != w {
					t.Fatalf("seed %d op %d: Stop = %v, model %v", seed, op, g, w)
				}
				if rng.Intn(2) == 0 {
					handles = append(handles[:i], handles[i+1:]...) // else keep the stale handle around
				}
			case k < 9:
				i := rng.Intn(owned)
				id := newID()
				ownedID[i] = id
				ownedT[i].Reset(delay)
				if ownedArmed[i] {
					m.cancel(ownedSeq[i])
				}
				ownedSeq[i], ownedArmed[i] = m.schedule(m.now+delay, id), true
			default:
				end := s.Now() + Time(rng.Intn(300))*Microsecond
				s.Run(end)
				m.run(end, fireModel)
			}
			if s.Pending() != len(m.pending) {
				t.Fatalf("seed %d op %d: Pending = %d, model %d", seed, op, s.Pending(), len(m.pending))
			}
		}
		s.Run(s.Now() + Second)
		m.run(m.now+Second, fireModel)

		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, model %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d fired id %d, model %d", seed, i, got[i], want[i])
			}
		}
		st := s.Stats()
		if st.Fired != uint64(len(got)) {
			t.Fatalf("seed %d: Stats.Fired = %d, fired %d", seed, st.Fired, len(got))
		}
		if st.Purged == 0 {
			t.Fatalf("seed %d: the interleaving never triggered a purge; the test lost its coverage", seed)
		}
	}
}

func contains(m *model, seq uint64) bool {
	for _, e := range m.pending {
		if e.seq == seq {
			return true
		}
	}
	return false
}

func TestStopInsideOwnCallback(t *testing.T) {
	s := New(1)
	var tm *Timer
	stopped, pending := false, true
	tm = s.At(Microsecond, func() {
		pending = tm.Pending()
		stopped = tm.Stop()
	})
	other := s.At(2*Microsecond, func() {})
	s.Run(Microsecond)
	if pending {
		t.Fatal("a firing timer reported itself pending")
	}
	if !stopped {
		t.Fatal("Stop inside the timer's own callback returned false")
	}
	// The event was already off the heap: the stop must not have been
	// counted as a dead heap entry.
	if s.Pending() != 1 || s.Stats().Cancelled != 0 {
		t.Fatalf("Pending = %d, Cancelled = %d after self-stop; want 1, 0", s.Pending(), s.Stats().Cancelled)
	}
	if tm.Stop() || tm.Pending() {
		t.Fatal("handle still live after its event fired")
	}
	if !other.Stop() || s.Pending() != 0 {
		t.Fatalf("Pending = %d after stopping the last event", s.Pending())
	}
}

func TestStaleHandleCannotTouchSlotsNewOccupant(t *testing.T) {
	s := New(1)
	old := s.At(Millisecond, func() { t.Error("cancelled event ran") })
	old.Stop()
	s.Run(2 * Millisecond) // pops the dead entry and frees its slot
	ran := false
	cur := s.At(3*Millisecond, func() { ran = true })
	if cur.slot != old.slot {
		t.Fatalf("test premise: slot %d not reused (got %d)", old.slot, cur.slot)
	}
	if old.Pending() {
		t.Fatal("stale handle reports the new occupant as its own")
	}
	if old.Stop() {
		t.Fatal("stale handle cancelled the new occupant")
	}
	if !cur.Pending() {
		t.Fatal("new occupant no longer pending")
	}
	s.Run(Second)
	if !ran {
		t.Fatal("new occupant did not fire")
	}
}

func TestPurgeLeavingNoneAndOne(t *testing.T) {
	for live := 0; live <= 1; live++ {
		s := New(1)
		fired := 0
		for i := 0; i < live; i++ {
			s.At(5*Millisecond, func() { fired++ })
		}
		timers := make([]*Timer, purgeMin)
		for i := range timers {
			timers[i] = s.At(Time(i+1)*Millisecond, func() { t.Error("cancelled event ran") })
		}
		for _, tm := range timers {
			tm.Stop()
		}
		if st := s.Stats(); st.Purged != purgeMin || s.queueLen() != live {
			t.Fatalf("live=%d: purged %d, heap %d; want %d, %d", live, st.Purged, s.queueLen(), purgeMin, live)
		}
		s.At(Millisecond, func() { fired++ })
		s.Run(Second)
		if fired != live+1 {
			t.Fatalf("live=%d: %d events fired after the purge, want %d", live, fired, live+1)
		}
	}
}

func TestSlabGrowsMidDispatch(t *testing.T) {
	const burst = 10000
	s := New(1)
	fired := 0
	first := s.At(Microsecond, func() {
		// The slab holds one slot here; the burst reallocates it many
		// times over while this event's own slot is still checked out.
		for i := 0; i < burst; i++ {
			s.Schedule(s.Now()+Time(i%7)*Microsecond, func() { fired++ })
		}
	})
	s.Run(Second)
	if fired != burst {
		t.Fatalf("%d of %d events scheduled mid-dispatch fired", fired, burst)
	}
	if first.Pending() || first.Stop() {
		t.Fatal("dispatching event's slot was not released cleanly")
	}
	if st := s.Stats(); st.Fired != burst+1 || st.HeapHighWater != burst {
		t.Fatalf("Stats = %+v, want Fired %d HeapHighWater %d", st, burst+1, burst)
	}
}

func TestResetCancelsPendingExpiryExactlyOnce(t *testing.T) {
	s := New(1)
	var zero Timer
	if zero.Pending() || zero.Stop() {
		t.Fatal("zero Timer must be idle")
	}
	var fired []Time
	tm := s.NewTimer(func() { fired = append(fired, s.Now()) })
	if tm.Pending() || tm.Stop() {
		t.Fatal("new Timer must be idle")
	}
	// ...also once slot 0 has its first occupant, which a never-armed
	// timer must not mistake for its own.
	first := s.At(Microsecond, func() {})
	if tm.Pending() || tm.Stop() || !first.Stop() {
		t.Fatal("never-armed Timer touched slot 0's occupant")
	}
	s = New(1)
	tm = s.NewTimer(func() { fired = append(fired, s.Now()) })
	tm.Reset(10 * Microsecond)
	if s.Stats().Cancelled != 0 {
		t.Fatal("arming an idle timer cancelled something")
	}
	tm.Reset(20 * Microsecond)
	if c := s.Stats().Cancelled; c != 1 || s.Pending() != 1 {
		t.Fatalf("after re-arm: Cancelled = %d, Pending = %d; want 1, 1", c, s.Pending())
	}
	s.Run(Second)
	if len(fired) != 1 || fired[0] != 20*Microsecond {
		t.Fatalf("fired at %v, want only the re-armed expiry at 20us", fired)
	}
	// Re-arming from the timer's own callback: nothing left to cancel.
	n := 0
	var tick Timer
	tick = s.NewTimer(func() {
		if n++; n < 5 {
			tick.Reset(Microsecond)
		}
	})
	tick.Reset(Microsecond)
	s.Run(2 * Second)
	if c := s.Stats().Cancelled; n != 5 || c != 1 {
		t.Fatalf("ticks = %d, Cancelled = %d; want 5, 1", n, c)
	}
}

func TestSteadyStateSchedulingAllocatesNothing(t *testing.T) {
	s := New(1)
	var tm Timer
	tm = s.NewTimer(func() { tm.Reset(Microsecond) })
	tm.Reset(Microsecond)
	s.Run(s.Now() + Millisecond) // warm the slab and the heap
	if a := testing.AllocsPerRun(100, func() { s.Run(s.Now() + 100*Microsecond) }); a != 0 {
		t.Fatalf("re-arm + fire of an owned timer: %v allocs per 100 events, want 0", a)
	}
	tm.Stop()

	nop := func() {}
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			s.Schedule(s.Now()+Time(i)*Microsecond, nop)
		}
		s.Run(s.Now() + 10*Microsecond)
	}); a != 0 {
		t.Fatalf("Schedule + fire on a warm slab: %v allocs per 8 events, want 0", a)
	}
}

// Views of kernel state for the tests: whether a timer is still
// scheduled, how many live events are queued, and the raw heap length
// including cancelled entries (which must stay bounded under churn).

func (t *Timer) Pending() bool {
	if t == nil || t.s == nil || t.slot == noSlot {
		return false
	}
	sl := &t.s.slots[t.slot]
	return sl.gen == t.gen && !sl.dead && sl.queued
}

func (s *Sim) Pending() int { return len(s.heap) - s.dead }

func (s *Sim) queueLen() int { return len(s.heap) }
