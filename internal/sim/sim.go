// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate on which the 802.11 PHY/MAC simulator runs.
// It keeps a virtual clock and an event heap; events scheduled for the same
// instant fire in FIFO order, which makes runs fully reproducible for a
// given seed.
//
// Scheduling allocates nothing in steady state: the queue is a 4-ary heap
// of value entries {at, seq, slot} over a slab of callback slots recycled
// through an index free list (generation-counted so stale Timer handles
// cannot touch a reused slot), so a sift moves no pointers. Cancellation is
// lazy: a cancelled slot is marked dead and purged in bulk once the dead
// outnumber the live, instead of being carried to its fire time.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Time is a simulated instant measured in nanoseconds since the start of
// the run. It is a distinct type so that wall-clock durations and simulated
// durations cannot be mixed up accidentally.
type Time int64

// Common duration helpers expressed in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds renders t as a floating point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String implements fmt.Stringer with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Event is a callback scheduled to run at a simulated instant.
type Event func()

// entry is one element of the event heap. It holds no pointers: the
// callback lives in the slab slot the entry indexes, so sifting entries
// never triggers a GC write barrier.
type entry struct {
	at   Time
	seq  uint64 // tie-break for deterministic FIFO order at equal times
	slot int32
}

// before is the queue order: (at, seq) ascending. seq is unique, so the
// order is total and the fired sequence does not depend on heap layout.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot holds one scheduled callback. A slot is taken from the free list
// by schedule and returned — generation bumped — after its event fires
// or its cancelled entry leaves the heap, so a Timer that still names it
// can tell the slot no longer belongs to it.
type slot struct {
	fn     Event
	gen    uint32 // bumped on release; Timers holding the old gen are stale
	dead   bool   // cancelled
	queued bool   // its entry is still in the heap
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// valid and never pending. A component that re-arms one timer for its
// whole life keeps a Timer by value, made once by NewTimer, and calls
// Reset; At and After allocate one for callers that want a handle per
// event.
type Timer struct {
	s    *Sim  // nil in the zero Timer
	fn   Event // what Reset schedules; nil in At/After handles, which never re-arm
	slot int32 // noSlot until first armed
	gen  uint32
}

const noSlot = -1

// NewTimer returns an idle timer that runs fn each time it expires. The
// callback is bound here, once: Reset allocates nothing, where a method
// value passed to After allocates a closure (and After a handle) per call.
func (s *Sim) NewTimer(fn Event) Timer { return Timer{s: s, fn: fn, slot: noSlot} }

// Reset arms a timer made by NewTimer to expire d nanoseconds from now,
// cancelling the expiry it was still waiting for, if any.
func (t *Timer) Reset(d Time) {
	t.Stop()
	t.arm(t.s.now+d, t.fn)
}

func (t *Timer) arm(at Time, fn Event) {
	t.slot = t.s.schedule(at, fn)
	t.gen = t.s.slots[t.slot].gen
}

// Stop cancels the timer. It reports whether the event had not yet fired
// (true also from inside the event's own callback).
func (t *Timer) Stop() bool {
	return t != nil && t.s != nil && t.slot != noSlot && t.s.cancel(t.slot, t.gen)
}

// purgeMin is the minimum number of cancelled entries before a purge pass
// is worth its O(n) sweep.
const purgeMin = 64

// Stats counts the kernel's work. The counts are a pure function of the
// simulated workload, so benchmarks report them as machine-independent
// cost and a test can pin them.
type Stats struct {
	Fired         uint64 // events whose callback ran
	Cancelled     uint64 // queued events cancelled by Stop or Reset
	Purged        uint64 // cancelled entries dropped by a bulk purge (the rest are dropped at their fire time)
	HeapHighWater int    // largest heap length reached, cancelled entries included
}

// totalFired sums Stats.Fired over every Sim in the process. Experiments
// build their simulators inside pooled cells, out of a benchmark's reach;
// this is how one reports events/op for a whole figure.
var totalFired atomic.Uint64

// TotalFired returns the events fired by all simulators in this process,
// current as of each one's last return from Run.
func TotalFired() uint64 { return totalFired.Load() }

// Sim is a discrete-event simulator instance. The zero value is not usable;
// construct with New.
type Sim struct {
	now   Time
	seq   uint64
	heap  []entry // 4-ary min-heap ordered by entry.before
	slots []slot
	free  []int32 // released slot indices
	dead  int     // cancelled entries still in the heap
	stats Stats
	rng   *rand.Rand
}

// New returns a simulator whose random streams derive from seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Stats returns the work counters accumulated since New.
func (s *Sim) Stats() Stats { return s.stats }

// Rand returns the simulator's random source. All stochastic components
// must draw from this (or a stream derived from it) so runs reproduce.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// NewStream derives an independent deterministic random stream. Components
// that interleave draws in data-dependent order should each own a stream so
// that unrelated changes do not perturb their randomness.
func (s *Sim) NewStream() *rand.Rand { return rand.New(rand.NewSource(s.rng.Int63())) }

// At schedules fn to run at the absolute instant at. Scheduling in the past
// panics: it always indicates a logic error in the caller.
func (s *Sim) At(at Time, fn Event) *Timer {
	t := &Timer{s: s}
	t.arm(at, fn)
	return t
}

// After schedules fn to run d nanoseconds from now.
func (s *Sim) After(d Time, fn Event) *Timer { return s.At(s.now+d, fn) }

// Schedule is At for events that are never cancelled.
func (s *Sim) Schedule(at Time, fn Event) { s.schedule(at, fn) }

func (s *Sim) schedule(at Time, fn Event) int32 {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	sl := &s.slots[i]
	sl.fn, sl.queued = fn, true

	e := entry{at: at, seq: s.seq, slot: i}
	s.seq++
	s.heap = append(s.heap, e)
	h := s.heap
	if len(h) > s.stats.HeapHighWater {
		s.stats.HeapHighWater = len(h)
	}
	// Sift up. e carries the largest seq in the heap, so it goes above a
	// parent only on a strictly earlier time.
	k := len(h) - 1
	for k > 0 {
		p := (k - 1) / 4
		if e.at >= h[p].at {
			break
		}
		h[k] = h[p]
		k = p
	}
	h[k] = e
	return i
}

// down restores the heap property below index k.
func (s *Sim) down(k int) {
	h := s.heap
	n := len(h)
	e := h[k]
	for {
		c := 4*k + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(e) {
			break
		}
		h[k] = h[m]
		k = m
	}
	h[k] = e
}

// cancel marks slot i dead if gen still names its current occupant.
func (s *Sim) cancel(i int32, gen uint32) bool {
	sl := &s.slots[i]
	if sl.gen != gen || sl.dead {
		return false
	}
	sl.dead = true
	if sl.queued {
		s.dead++
		s.stats.Cancelled++
		// Long-running probers schedule and cancel constantly; without a
		// purge every cancelled entry rides the heap to its fire time and
		// the heap grows without bound. Sweep once the dead outnumber the
		// live entries.
		if s.dead >= purgeMin && 2*s.dead > len(s.heap) {
			s.purge()
		}
	}
	return true
}

// release returns a slot to the free list. Clearing fn makes the closure
// (and whatever it captured) collectable; bumping gen invalidates any
// Timer still naming the slot.
func (s *Sim) release(i int32) {
	s.slots[i] = slot{gen: s.slots[i].gen + 1}
	s.free = append(s.free, i)
}

// purge drops every cancelled entry from the heap in one sweep and
// restores the heap invariant.
func (s *Sim) purge() {
	live := s.heap[:0]
	for _, e := range s.heap {
		if s.slots[e.slot].dead {
			s.release(e.slot)
		} else {
			live = append(live, e)
		}
	}
	s.stats.Purged += uint64(len(s.heap) - len(live))
	s.heap = live
	s.dead = 0
	// Heapify from the last parent. With fewer than two entries there is
	// none — and (n-2)/4 would truncate toward zero, not below it.
	if n := len(live); n >= 2 {
		for k := (n - 2) / 4; k >= 0; k-- {
			s.down(k)
		}
	}
}

// Run executes events until the queue drains or the clock passes end.
// It returns the final simulated time.
func (s *Sim) Run(end Time) Time {
	fired := s.stats.Fired
	for len(s.heap) > 0 {
		e := s.heap[0]
		if e.at > end {
			break
		}
		n := len(s.heap) - 1
		s.heap[0] = s.heap[n]
		s.heap = s.heap[:n]
		if n > 1 {
			s.down(0)
		}
		// No slot pointer may be held across fn: a callback that
		// schedules can grow the slab.
		sl := &s.slots[e.slot]
		if sl.dead {
			s.dead--
			s.release(e.slot)
			continue
		}
		fn := sl.fn
		sl.queued = false
		s.now = e.at
		s.stats.Fired++
		fn()
		s.release(e.slot)
	}
	totalFired.Add(s.stats.Fired - fired)
	if s.now < end {
		s.now = end
	}
	return s.now
}
