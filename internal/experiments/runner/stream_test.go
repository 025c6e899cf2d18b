package runner

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamEmitsInOrder checks the core contract: emit sees every cell
// exactly once, in index order, whatever the worker count and however
// skewed the per-cell runtimes are.
func TestStreamEmitsInOrder(t *testing.T) {
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i
	}
	for _, workers := range []int{1, 2, 7, 16} {
		rng := rand.New(rand.NewSource(1))
		delays := make([]time.Duration, len(cells))
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
		}
		var got []int
		stream(t, workers, cells, func(i int, c int) int {
			time.Sleep(delays[i])
			return c * c
		}, func(i int, r int) {
			if r != i*i {
				t.Fatalf("workers=%d: emit(%d) got %d, want %d", workers, i, r, i*i)
			}
			got = append(got, i)
		})
		want := make([]int, len(cells))
		for i := range want {
			want[i] = i
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: emission order %v", workers, got)
		}
	}
}

// TestStreamPanicPropagates checks a cell panic reaches the caller as a
// *PanicError naming the cell, at any worker count, and that every cell
// before the panicked index still emits.
func TestStreamPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var emitted []int
		err := StreamCtx(context.Background(), workers, make([]int, 50), func(i int, _ int) int {
			if i == 25 {
				panic("boom")
			}
			return i
		}, func(i int, _ int) { emitted = append(emitted, i) })
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Cell != 25 || pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: err = %#v, want a *PanicError for cell 25", workers, err)
		}
		if !strings.Contains(err.Error(), "cell 25") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("workers=%d: error %q lost the cell or the cause", workers, err)
		}
		if len(emitted) != 25 || emitted[24] != 24 {
			t.Fatalf("workers=%d: emitted %v, want cells 0..24", workers, emitted)
		}
	}
}

// TestStreamBackpressureBoundsReorderWindow: a straggling early cell
// must stall the pool once the reorder window fills, instead of letting
// the whole sweep complete and pile up unemitted.
func TestStreamBackpressureBoundsReorderWindow(t *testing.T) {
	const workers = 4
	cells := make([]int, 400)
	var maxClaimed atomic.Int64
	var emitted int
	stream(t, workers, cells, func(i int, _ int) int {
		for {
			cur := maxClaimed.Load()
			if int64(i) <= cur || maxClaimed.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
		if i == 0 {
			// Straggle: without backpressure the other workers chew
			// through all 400 trivial cells during this sleep.
			time.Sleep(100 * time.Millisecond)
		}
		return i
	}, func(i int, r int) {
		if i == 0 {
			// Everything claimed so far ran ahead of a stalled frontier;
			// the token pool caps that at the reorder window plus the
			// workers' in-flight cells.
			if got, limit := maxClaimed.Load(), int64(4*workers+workers); got > limit {
				t.Errorf("claimed up to cell %d while cell 0 stalled (limit ~%d)", got, limit)
			}
		}
		emitted++
	})
	if emitted != len(cells) {
		t.Fatalf("emitted %d of %d after the frontier released", emitted, len(cells))
	}
}

// TestStreamEmptyAndSingle covers the degenerate shapes.
func TestStreamEmptyAndSingle(t *testing.T) {
	stream(t, 4, nil, func(i int, c int) int { return c }, func(int, int) {
		t.Fatal("emit on empty cells")
	})
	var n int
	stream(t, 4, []int{7}, func(i int, c int) int { return c }, func(i int, r int) {
		if i != 0 || r != 7 {
			t.Fatalf("got (%d,%d)", i, r)
		}
		n++
	})
	if n != 1 {
		t.Fatalf("emit count %d", n)
	}
}

// TestStreamCtxCancelEmitsGaplessPrefix: whatever the worker count and
// whenever the cancel lands, the emitted cells must be exactly
// [0, k) for some k — a byte-prefix of the full run's stream — with
// ctx.Err() returned iff the sweep was actually cut short.
func TestStreamCtxCancelEmitsGaplessPrefix(t *testing.T) {
	const n = 400
	cells := make([]int, n)
	for _, workers := range []int{1, 2, 7, 16} {
		ctx, cancel := context.WithCancel(context.Background())
		var got []int
		err := StreamCtx(ctx, workers, cells, func(i int, _ int) int {
			time.Sleep(20 * time.Microsecond)
			return i
		}, func(i int, r int) {
			if i == 10 {
				cancel()
			}
			got = append(got, i)
		})
		cancel()
		for i, g := range got {
			if g != i {
				t.Fatalf("workers=%d: emission %v is not a gapless prefix", workers, got)
			}
		}
		if len(got) <= 10 {
			t.Fatalf("workers=%d: cancelled before the triggering cell emitted (%d cells)", workers, len(got))
		}
		if len(got) == n {
			if err != nil {
				t.Fatalf("workers=%d: complete run returned %v", workers, err)
			}
		} else if err != context.Canceled {
			t.Fatalf("workers=%d: cut-short run (%d/%d cells) returned %v", workers, len(got), n, err)
		}
	}
}

// TestStreamCtxCancelRaced drives cancellation from a separate goroutine
// at pseudo-random points: the gapless-prefix property must hold for
// every interleaving (the race detector guards the rest).
func TestStreamCtxCancelRaced(t *testing.T) {
	cells := make([]int, 120)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(rng.Intn(400)) * time.Microsecond
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		var got []int
		err := StreamCtx(ctx, 4, cells, func(i int, _ int) int {
			time.Sleep(10 * time.Microsecond)
			return i * 3
		}, func(i int, r int) {
			if r != i*3 {
				t.Errorf("trial %d: emit(%d) = %d", trial, i, r)
			}
			got = append(got, i)
		})
		cancel()
		for i, g := range got {
			if g != i {
				t.Fatalf("trial %d: emission %v is not a gapless prefix", trial, got)
			}
		}
		if (err == nil) != (len(got) == len(cells)) {
			t.Fatalf("trial %d: %d/%d cells emitted but err = %v", trial, len(got), len(cells), err)
		}
	}
}

// stream runs StreamCtx to completion on a background context.
func stream[T, R any](t *testing.T, workers int, cells []T, fn func(i int, cell T) R, emit func(i int, r R)) {
	t.Helper()
	if err := StreamCtx(context.Background(), workers, cells, fn, emit); err != nil {
		t.Fatal(err)
	}
}
