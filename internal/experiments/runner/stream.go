package runner

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// StreamCtx runs fn(i, cells[i]) for every cell on a pool of workers
// (workers <= 0 means GOMAXPROCS). Cells are claimed from a shared
// counter so stragglers do not idle the pool, and each result is handed
// to emit on the calling goroutine, serialized, in cell index order, as
// soon as its index becomes the emission frontier. A result computed out
// of order is buffered only until every earlier cell has been emitted,
// so the reduction downstream of emit sees the same order a sequential
// run would produce: streamed output is bit-identical for any worker
// count.
//
// Cancelling ctx stops the run at the next cell boundary: no new cells
// are claimed, cells already executing finish, and emission drains to
// the longest gapless prefix reachable from completed cells. The emitted
// output is therefore always a byte-prefix of the full run's output —
// for any worker count and any cancellation point — which is what makes
// a cancelled run's partial stream checkpointable and resumable. The
// return value is nil when every cell was emitted (even if ctx was
// cancelled after the last claim) and ctx.Err() when the sweep was cut
// short.
//
// Memory is genuinely bounded by the reorder window, not the sweep: a
// worker must hold one of 4×workers tokens to claim a cell, and a
// token only returns to the pool when its result is emitted (or the run
// aborts). A straggling early cell therefore stalls the pool after at
// most 4×workers completed-but-unemitted results instead of letting the
// rest of the sweep pile up gathered in memory.
//
// A panic in any cell stops new cells from being claimed, suppresses
// emission from that cell onward (earlier cells still emit), and is
// returned as a *PanicError after the pool drains. A panic in emit is
// the caller's own and propagates.
func StreamCtx[T, R any](ctx context.Context, workers int, cells []T, fn func(i int, cell T) R, emit func(i int, r R)) error {
	n := len(cells)
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	fn = instrumentCell(ctx, fn)
	done := ctx.Done() // nil for background contexts: the case never fires
	if workers == 1 {
		for i, c := range cells {
			select {
			case <-done:
				countCancelled(n, i)
				return ctx.Err()
			default:
			}
			r, perr := runCell(fn, i, c)
			if perr != nil {
				return perr
			}
			emit(i, r)
		}
		return nil
	}

	type item struct {
		i   int
		r   R
		err *PanicError
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicked  atomic.Pointer[PanicError] // first cell panic, returned
		abortOnce sync.Once
	)
	window := 4 * workers // reorder-buffer bound (completed, unemitted)
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	abort := make(chan struct{}) // closed when emission stops early
	results := make(chan item, window)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// A token caps how far completed work may run ahead of
				// the emission frontier; abort unblocks a stalled pool
				// and cancellation stops claims at the cell boundary.
				select {
				case <-tokens:
				case <-abort:
					return
				case <-done:
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				it := item{i: i}
				it.r, it.err = runCell(fn, i, cells[i])
				if it.err != nil {
					panicked.CompareAndSwap(nil, it.err)
				}
				results <- it
				if panicked.Load() != nil {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder buffer: advance the frontier and emit in cell order,
	// returning one token per emitted result. If emit panics, abort the
	// pool and keep draining the channel in the background so no worker
	// is leaked blocking on a send.
	defer func() {
		if r := recover(); r != nil {
			abortOnce.Do(func() { close(abort) })
			go func() {
				for range results {
				}
			}()
			panic(r)
		}
	}()
	pending := make(map[int]R)
	frontier := 0
	for it := range results {
		if it.err != nil {
			// The panicked cell's index stalls the frontier for good;
			// unblock any workers waiting on tokens and stop emitting.
			abortOnce.Do(func() { close(abort) })
			continue
		}
		pending[it.i] = it.r
		for {
			r, ready := pending[frontier]
			if !ready {
				break
			}
			delete(pending, frontier)
			emit(frontier, r)
			frontier++
			tokens <- struct{}{}
		}
	}
	if p := panicked.Load(); p != nil {
		return p
	}
	if frontier < n {
		// Cancelled mid-sweep: the emitted prefix is [0, frontier).
		countCancelled(n, int(next.Load()))
		return ctx.Err()
	}
	return nil
}

// runCell calls fn(i, cell) and turns a panic into a *PanicError.
func runCell[T, R any](fn func(i int, cell T) R, i int, cell T) (r R, err *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Cell: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i, cell), nil
}
