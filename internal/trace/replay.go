package trace

import (
	"fmt"
	"math/rand"

	"repro/internal/phy"
)

// Replay is a phy.Channel backed by one cell's recorded trace: every
// channel-error decision returns the recorded outcome for that frame
// instead of a fresh Bernoulli draw.
//
// Two contracts make this exact:
//
//   - rng mirroring. The stochastic channel consumes one draw iff
//     p > 0, from the same stream that feeds the fade draws. Lost
//     performs the identical draw before consulting the trace, so the
//     stream stays bit-aligned whether or not a replay is installed.
//
//   - per-link cursors. Recorded events on one directed link occur in
//     seq order (a source serializes its transmissions). The cursor
//     skips recorded events whose seq precedes the queried frame —
//     those were dropped before the channel decision (SINR, unlocked)
//     and never produce a Lost call — and matches the queried frame by
//     exact (seq, kind). A frame with no recorded event (an overheard
//     unicast decode at a third party, which capture deliberately does
//     not trace) falls back to the mirrored draw, preserving the
//     stochastic behaviour without disturbing the queues.
//
// Divergence — a frame reaching the channel decision that the recording
// says was dropped earlier — is counted and reported by Err.
type Replay struct {
	q      map[Link][]Event
	cursor map[Link]int

	diverged  int
	firstDiag string
}

// NewReplay builds a replay channel from one cell's trace. The trace is
// read, never modified.
func NewReplay(ct *CellTrace) *Replay {
	r := &Replay{q: make(map[Link][]Event), cursor: make(map[Link]int)}
	if ct != nil {
		for _, l := range ct.order {
			r.q[l] = ct.byLink[l]
		}
	}
	return r
}

// Lost implements phy.Channel: mirror the stochastic draw, then answer
// from the recorded trace.
func (r *Replay) Lost(f *phy.Frame, dst int, p float64, rng *rand.Rand) bool {
	coin := false
	if p > 0 {
		coin = rng.Float64() < p
	}
	return r.Outcome(f.Src, dst, f.Seq, int(f.Kind), coin)
}

// Outcome answers one channel decision for (src, dst, seq, kind) from
// the trace, falling back to coin (the caller's own mirrored draw) for
// frames the trace does not cover. Broadcast dissemination's relay loop
// — which draws its coins outside phy — consults this directly.
func (r *Replay) Outcome(src, dst int, seq int64, kind int, coin bool) bool {
	l := Link{Src: src, Dst: dst}
	q, ok := r.q[l]
	if !ok {
		return coin
	}
	i := r.cursor[l]
	for i < len(q) && q[i].Seq < seq {
		i++ // dropped before the channel decision; no Lost call recorded
	}
	r.cursor[l] = i
	if i >= len(q) || q[i].Seq != seq || q[i].Kind != kind {
		return coin // untraced frame on a traced link
	}
	ev := q[i]
	r.cursor[l] = i + 1
	switch ev.Out {
	case OutDelivered:
		return false
	case OutChannel:
		return true
	default:
		// The recording says this frame never reached the channel
		// decision (dropped by SINR or never locked) — the replayed
		// execution has diverged from the recorded one.
		r.diverged++
		if r.firstDiag == "" {
			r.firstDiag = fmt.Sprintf("link %s seq %d: recorded outcome %q, but the frame reached the channel decision",
				l, seq, outName(ev.Out))
		}
		return coin
	}
}

// Err reports divergence between the replayed execution and the
// recorded one: nil means every consulted decision was consistent with
// the trace.
func (r *Replay) Err() error {
	if r.diverged == 0 {
		return nil
	}
	return fmt.Errorf("trace: replay diverged on %d decision(s); first: %s", r.diverged, r.firstDiag)
}
