// Package fault is the seedable fault-injection harness for the
// distributed execution stack. A Schedule describes, per shard, when a
// worker should die, hang, crawl, stall, or corrupt its stream; the
// worker protocol (dist.ServeWork) consults the schedule on every record
// so the dist/serve test suites and the CI chaos smoke can replay the
// exact same failure sequence against a real coordinator run and assert
// byte-identity of the merged output.
//
// Schedules are parsed from a comma-separated spec, normally carried in
// the MESHOPT_FAULT environment variable:
//
//	<shard>/<kind>[@<records>][=<duration>][x<attempts>]
//
//	1/kill@2        shard 1's worker dies (stream cut, no marker)
//	                after emitting 2 records, on every attempt
//	1/kill@2x1      same, but only on attempt 1 — the retry succeeds
//	0/hang@3        shard 0's worker emits 3 records then wedges until
//	                killed (exercises the per-attempt deadline)
//	2/slow=20ms     shard 2's worker sleeps 20ms before every record
//	                (exercises frontier-stall work stealing)
//	1/stall@4=80ms  shard 1 pauses once, before record 4, then recovers
//	1/corrupt@5x1   the first byte of shard 1's record line 5 is flipped
//	                in transit (after hashing, so the corruption is
//	                detectable downstream), on attempt 1 only
//	seed=7          seeds the schedule: faults written without an
//	                explicit @<records> derive their cut point from
//	                (seed, shard, attempt), so chaos runs explore
//	                different cut points while staying reproducible
package fault

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Kind is one injected failure mode.
type Kind string

const (
	// Kill cuts the stream after After records: no completion marker,
	// nonzero worker exit — indistinguishable from a crashed process.
	Kill Kind = "kill"
	// Hang emits After records then blocks until released (in-process
	// workers) or the process is killed (subprocess workers).
	Hang Kind = "hang"
	// Slow sleeps Delay before every record for the whole request.
	Slow Kind = "slow"
	// Stall sleeps Delay once, before record After, then recovers.
	Stall Kind = "stall"
	// Corrupt flips the first byte of record line After in transit. The
	// flip happens after hashing, modelling transport corruption: the
	// worker's declared hash is clean, the delivered bytes are not, so
	// the receiver must detect the mismatch rather than checkpoint it.
	Corrupt Kind = "corrupt"
)

// Fault is one scheduled failure affecting every request for one shard.
type Fault struct {
	Shard    int
	Kind     Kind
	After    int           // records before the fault acts; -1 = seed-derived
	Delay    time.Duration // Slow: per record; Stall: once
	Attempts int           // fire on attempts 1..Attempts; 0 = every attempt
}

// Schedule is a parsed fault schedule. The zero value (or nil) injects
// nothing.
type Schedule struct {
	Seed   int64
	Faults []Fault
}

// ErrInjected marks an injected worker death (Kill, or a released Hang).
var ErrInjected = errors.New("fault: injected worker fault")

// Parse parses a schedule spec. Empty means no faults.
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	if strings.TrimSpace(spec) == "" {
		return s, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", v)
			}
			s.Seed = seed
			continue
		}
		f, err := parseFault(clause)
		if err != nil {
			return nil, err
		}
		s.Faults = append(s.Faults, f)
	}
	return s, nil
}

func parseFault(clause string) (Fault, error) {
	bad := func(why string) (Fault, error) {
		return Fault{}, fmt.Errorf("fault: clause %q: %s (want <shard>/<kind>[@<records>][=<dur>][x<attempts>])", clause, why)
	}
	shardStr, rest, ok := strings.Cut(clause, "/")
	if !ok {
		return bad("missing '/'")
	}
	shard, err := strconv.Atoi(shardStr)
	if err != nil || shard < 0 {
		return bad("bad shard index")
	}
	f := Fault{Shard: shard, After: -1}
	// Suffixes in fixed order: kind, then @records, =dur, xattempts.
	if i := strings.IndexByte(rest, 'x'); i >= 0 {
		n, err := strconv.Atoi(rest[i+1:])
		if err != nil || n < 1 {
			return bad("bad attempt limit")
		}
		f.Attempts = n
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '='); i >= 0 {
		d, err := time.ParseDuration(rest[i+1:])
		if err != nil || d < 0 {
			return bad("bad duration")
		}
		f.Delay = d
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '@'); i >= 0 {
		n, err := strconv.Atoi(rest[i+1:])
		if err != nil || n < 0 {
			return bad("bad record count")
		}
		f.After = n
		rest = rest[:i]
	}
	f.Kind = Kind(rest)
	switch f.Kind {
	case Kill, Hang, Corrupt:
		if f.Delay != 0 {
			return bad("duration is only valid for slow/stall")
		}
	case Stall:
		if f.Delay == 0 {
			return bad("stall needs =<duration>")
		}
	case Slow:
		if f.Delay == 0 {
			return bad("slow needs =<duration>")
		}
		if f.After >= 0 {
			return bad("slow applies to every record; drop @<records>")
		}
	default:
		return bad("unknown kind")
	}
	return f, nil
}

// EnvVar is the environment variable carrying a schedule spec across a
// process boundary.
const EnvVar = "MESHOPT_FAULT"

// FromEnv parses the schedule from MESHOPT_FAULT. An unset environment
// yields an empty schedule.
func FromEnv() (*Schedule, error) {
	return Parse(os.Getenv(EnvVar))
}

// For returns the injector for one request (shard, attempt), or nil if
// no fault in the schedule applies to it. attempt counts from 1. The
// release channel (may be nil) unblocks Hang faults — in-process
// spawners wire it to their kill signal; subprocess workers leave it nil
// and rely on the real kill.
func (s *Schedule) For(shard, attempt int, release <-chan struct{}) *Injector {
	if s == nil {
		return nil
	}
	var active []Fault
	for _, f := range s.Faults {
		if f.Shard != shard {
			continue
		}
		if f.Attempts > 0 && attempt > f.Attempts {
			continue
		}
		if f.After < 0 && f.Kind != Slow {
			// Seed-derived cut point: reproducible for the same
			// (seed, shard, attempt), different across them.
			f.After = int(Mix64(uint64(s.Seed), uint64(shard), uint64(attempt)) % 8)
		}
		active = append(active, f)
	}
	if len(active) == 0 {
		return nil
	}
	return &Injector{faults: active, release: release}
}

// Injector applies one request's active faults. The worker's record
// sink calls BeforeRecord(n) before emitting record n (0-based) and
// Corrupts(n) when writing line n; both are cheap no-ops for fault-free
// records.
type Injector struct {
	faults  []Fault
	release <-chan struct{}
}

// BeforeRecord enforces kill/hang/slow/stall faults before record n is
// emitted. It returns ErrInjected when the worker should die (Kill, or
// a Hang that was released), after sleeping any slow/stall delays.
func (i *Injector) BeforeRecord(n int) error {
	if i == nil {
		return nil
	}
	for _, f := range i.faults {
		switch f.Kind {
		case Slow:
			time.Sleep(f.Delay)
		case Stall:
			if n == f.After {
				time.Sleep(f.Delay)
			}
		case Kill:
			if n >= f.After {
				return fmt.Errorf("%w: kill before record %d", ErrInjected, n)
			}
		case Hang:
			if n >= f.After {
				if i.release == nil {
					select {} // wedged until the process is killed
				}
				<-i.release
				return fmt.Errorf("%w: hang released before record %d", ErrInjected, n)
			}
		}
	}
	return nil
}

// Corrupts reports whether record line n should be corrupted in transit.
func (i *Injector) Corrupts(n int) bool {
	if i == nil {
		return false
	}
	for _, f := range i.faults {
		if f.Kind == Corrupt && f.After == n {
			return true
		}
	}
	return false
}

// Mix64 hashes its arguments with the splitmix64 finalizer — the shared
// deterministic mixer behind seed-derived cut points and the
// coordinator's reproducible retry jitter.
func Mix64(vals ...uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}
