package runner

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// gather runs StreamCtx and collects the emitted results by cell index;
// cells that never emitted stay at R's zero value.
func gather[T, R any](ctx context.Context, workers int, cells []T, fn func(i int, cell T) R) ([]R, error) {
	out := make([]R, len(cells))
	err := StreamCtx(ctx, workers, cells, fn, func(i int, r R) { out[i] = r })
	return out, err
}

func TestMapGathersByIndex(t *testing.T) {
	cells := []int{6, 5, 4, 3, 2, 1}
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := gather(context.Background(), workers, cells, func(i, c int) int { return i * 10 * c / c })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range cells {
			if got[i] != i*10 {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, got[i], i*10)
			}
		}
	}
}

func TestStreamEveryCellRunsExactlyOnce(t *testing.T) {
	const n = 200
	var counts [n]atomic.Int64
	cells := make([]int, n)
	stream(t, 8, cells, func(i, _ int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	}, func(int, struct{}) {})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got, err := gather(context.Background(), 0, nil, func(int, int) int { return 1 }); err != nil || len(got) != 0 {
		t.Fatalf("empty gather returned %v, %v", got, err)
	}
	got, err := gather(context.Background(), 0, []string{"x"}, func(_ int, s string) string { return s + "y" })
	if err != nil || len(got) != 1 || got[0] != "xy" {
		t.Fatalf("single-cell gather returned %v, %v", got, err)
	}
}

func TestSetWorkersRoundTrip(t *testing.T) {
	old := SetWorkers(3)
	defer SetWorkers(old)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d with default pool", Workers())
	}
}

func TestMapPanicPropagates(t *testing.T) {
	_, err := gather(context.Background(), 4, []int{0, 1, 2, 3}, func(i, _ int) int {
		if i == 2 {
			panic("boom")
		}
		return i
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic in a cell did not propagate: err = %v", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic error %v lost the cause", err)
	}
}

// TestMapCtxCancelFillsGaplessPrefix: a run cancelled from inside a cell
// leaves out[0:k] filled and the rest zero — never a gap — because cells
// are claimed sequentially and every claimed cell completes.
func TestMapCtxCancelFillsGaplessPrefix(t *testing.T) {
	const n = 300
	cells := make([]int, n)
	for i := range cells {
		cells[i] = i + 1 // distinguishable from the zero value
	}
	for _, workers := range []int{1, 4, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		out, err := gather(ctx, workers, cells, func(i, c int) int {
			if ran.Add(1) == 20 {
				cancel()
			}
			time.Sleep(10 * time.Microsecond)
			return c
		})
		cancel()
		k := 0
		for k < n && out[k] != 0 {
			k++
		}
		for i := k; i < n; i++ {
			if out[i] != 0 {
				t.Fatalf("workers=%d: out has a gap: out[%d]=0 but out[%d]=%d", workers, k, i, out[i])
			}
		}
		if k == n {
			if err != nil {
				t.Fatalf("workers=%d: complete run returned %v", workers, err)
			}
		} else if err != context.Canceled {
			t.Fatalf("workers=%d: cut-short run (%d/%d cells) returned %v", workers, k, n, err)
		}
	}
}
