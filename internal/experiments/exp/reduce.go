package exp

import (
	"fmt"
	"runtime/debug"

	"repro/internal/scenario/sink"
)

// captureSeries is the series every capture stamps on its records
// (trace.Series): they ride the stream but never reach a reduction.
const captureSeries = "trace"

// ReducePanicError reports an experiment's Reduce that panicked: the run
// feeding it fails with this error instead of crashing the process.
type ReducePanicError struct {
	Experiment string
	Value      any    // the value passed to panic
	Stack      []byte // the panicking goroutine's stack
}

func (e *ReducePanicError) Error() string {
	return fmt.Sprintf("exp: %s: reduce panicked: %v", e.Experiment, e.Value)
}

// Reduction runs an experiment's Reduce on its own goroutine over the
// records fed to it, and is the one way records reach a Reduce: Feed
// drops capture records, so every reduction sees the capture-off stream,
// and Finish turns a panicking Reduce into a *ReducePanicError.
type Reduction struct {
	ch     chan sink.Record
	closed bool
	done   chan struct{}
	res    Result
	err    error
}

// NewReduction starts e's reduction. The feed buffers a few cells' worth
// of records so the producer rarely waits on the reducer.
func NewReduction(e Experiment) *Reduction {
	r := &Reduction{ch: make(chan sink.Record, 64), done: make(chan struct{})}
	go func() {
		defer func() {
			if v := recover(); v != nil {
				r.err = &ReducePanicError{Experiment: e.Name(), Value: v, Stack: debug.Stack()}
			}
			for range r.ch {
				// A Reduce that stopped reading must not block Feed.
			}
			close(r.done)
		}()
		r.res = e.Reduce(r.ch)
	}()
	return r
}

// Feed hands rec to the reduction, unless it is a capture record.
func (r *Reduction) Feed(rec sink.Record) {
	if rec.Series != captureSeries {
		r.ch <- rec
	}
}

// Finish ends the feed and returns the reduction, or the
// *ReducePanicError its Reduce raised. Later calls return the same.
func (r *Reduction) Finish() (Result, error) {
	if !r.closed {
		r.closed = true
		close(r.ch)
	}
	<-r.done
	return r.res, r.err
}
