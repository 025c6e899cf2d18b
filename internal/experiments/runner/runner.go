// Package runner is the parallel experiment engine: a deterministic
// worker-pool fan-out over independent simulation cells.
//
// Every figure of the paper's evaluation sweeps independent (seed,
// config, link-pair, probe-window) cells, each of which builds its own
// simulator and topology from a seed assigned before the fan-out starts.
// StreamCtx executes those cells across a pool of workers and emits
// results in cell order, so the output of a run is bit-identical
// whatever the worker count: parallelism changes only the wall-clock,
// never the numbers.
//
// The contract a cell function must honour for that guarantee is the
// usual one for deterministic parallel sweeps:
//
//   - derive all randomness from the cell's own inputs (its index or a
//     pre-assigned seed), never from shared RNG state;
//   - build private simulator/medium/node state, never touching another
//     cell's;
//   - write only to its return value.
//
// All experiment code in internal/experiments follows this contract.
package runner

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// defaultWorkers is the pool size callers read through Workers; 0 means
// GOMAXPROCS.
var defaultWorkers atomic.Int64

// SetWorkers fixes the default pool size reported by Workers. n <= 0
// restores the default of GOMAXPROCS. It returns the previous setting
// so callers (tests, benchmarks) can restore it.
func SetWorkers(n int) int {
	old := int(defaultWorkers.Swap(int64(n)))
	return old
}

// Workers returns the effective default pool size.
func Workers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError reports a cell function that panicked. StreamCtx returns
// it once the pool has drained; every cell before Cell was emitted.
type PanicError struct {
	Cell  int
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: cell %d panicked: %v", e.Cell, e.Value)
}
