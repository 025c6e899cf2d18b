package fault

import (
	"errors"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	s, err := Parse("seed=7, 1/kill@2x1, 2/slow=20ms, 0/stall@4=80ms, 1/corrupt@5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 {
		t.Fatalf("seed = %d, want 7", s.Seed)
	}
	want := []Fault{
		{Shard: 1, Kind: Kill, After: 2, Attempts: 1},
		{Shard: 2, Kind: Slow, After: -1, Delay: 20 * time.Millisecond},
		{Shard: 0, Kind: Stall, After: 4, Delay: 80 * time.Millisecond},
		{Shard: 1, Kind: Corrupt, After: 5},
	}
	if len(s.Faults) != len(want) {
		t.Fatalf("parsed %d faults, want %d: %+v", len(s.Faults), len(want), s.Faults)
	}
	for i, f := range s.Faults {
		if f != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, spec := range []string{
		"kill@2",          // no shard
		"1/fry@2",         // unknown kind
		"1/kill=5ms",      // duration on kill
		"1/slow",          // slow without duration
		"1/slow@3=5ms",    // slow with a cut point
		"1/stall@3",       // stall without duration
		"1/kill@-1",       // negative record count
		"1/kill@2x0",      // attempt limit below 1
		"-1/kill@2",       // negative shard
		"seed=abc",        // bad seed
		"1/kill@two",      // bad record count
		"1/stall@3=bogus", // bad duration
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", ","} {
		s, err := Parse(spec)
		if err != nil || len(s.Faults) != 0 {
			t.Errorf("Parse(%q) = %+v, %v; want empty schedule", spec, s, err)
		}
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "")
	s, err := FromEnv()
	if err != nil || len(s.Faults) != 0 {
		t.Fatalf("unset env parsed as %+v, %v", s, err)
	}
	t.Setenv(EnvVar, "2/kill@0")
	s, err = FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) != 1 || s.Faults[0] != (Fault{Shard: 2, Kind: Kill, After: 0}) {
		t.Fatalf("env parsed as %+v", s.Faults)
	}
}

func TestForFiltersShardAndAttempt(t *testing.T) {
	s, err := Parse("1/kill@2x1,2/slow=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if inj := s.For(0, 1, nil); inj != nil {
		t.Errorf("shard 0 got an injector: %+v", inj.faults)
	}
	if inj := s.For(1, 1, nil); inj == nil {
		t.Error("shard 1 attempt 1 should be injected")
	}
	if inj := s.For(1, 2, nil); inj != nil {
		t.Errorf("shard 1 attempt 2 should be clean (x1): %+v", inj.faults)
	}
	if inj := s.For(2, 99, nil); inj == nil {
		t.Error("slow fault with no attempt limit should fire on every attempt")
	}
}

func TestKillFiresAtCutPoint(t *testing.T) {
	s, _ := Parse("0/kill@2")
	inj := s.For(0, 1, nil)
	for n := 0; n < 2; n++ {
		if err := inj.BeforeRecord(n); err != nil {
			t.Fatalf("record %d: unexpected %v", n, err)
		}
	}
	err := inj.BeforeRecord(2)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("record 2: got %v, want ErrInjected", err)
	}
}

func TestHangReleases(t *testing.T) {
	s, _ := Parse("0/hang@0")
	release := make(chan struct{})
	inj := s.For(0, 1, release)
	got := make(chan error, 1)
	go func() { got <- inj.BeforeRecord(0) }()
	select {
	case err := <-got:
		t.Fatalf("hang returned %v before release", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-got:
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("released hang returned %v, want ErrInjected", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang did not release")
	}
}

func TestSeedDerivedCutPointIsReproducible(t *testing.T) {
	s, _ := Parse("seed=3,0/kill")
	a := s.For(0, 1, nil)
	b := s.For(0, 1, nil)
	if a.faults[0].After != b.faults[0].After {
		t.Fatalf("cut point not reproducible: %d vs %d", a.faults[0].After, b.faults[0].After)
	}
	if a.faults[0].After < 0 {
		t.Fatalf("cut point not resolved: %d", a.faults[0].After)
	}
	// A different attempt explores a different (but reproducible) point
	// for at least some (seed, shard); just assert determinism here.
	c := s.For(0, 2, nil)
	d := s.For(0, 2, nil)
	if c.faults[0].After != d.faults[0].After {
		t.Fatalf("attempt-2 cut point not reproducible: %d vs %d", c.faults[0].After, d.faults[0].After)
	}
}

func TestCorrupts(t *testing.T) {
	s, _ := Parse("0/corrupt@3")
	inj := s.For(0, 1, nil)
	if inj.Corrupts(2) || !inj.Corrupts(3) || inj.Corrupts(4) {
		t.Fatal("Corrupts should fire exactly on line 3")
	}
	if err := inj.BeforeRecord(3); err != nil {
		t.Fatalf("corrupt must not kill the worker: %v", err)
	}
}

func TestNilSafety(t *testing.T) {
	var s *Schedule
	if inj := s.For(0, 1, nil); inj != nil {
		t.Fatal("nil schedule should yield nil injector")
	}
	var inj *Injector
	if err := inj.BeforeRecord(0); err != nil {
		t.Fatal(err)
	}
	if inj.Corrupts(0) {
		t.Fatal("nil injector corrupts nothing")
	}
}

func TestMix64Deterministic(t *testing.T) {
	if Mix64(1, 2, 3) != Mix64(1, 2, 3) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(1, 2, 3) == Mix64(1, 2, 4) {
		t.Fatal("Mix64 collides on adjacent inputs (suspicious)")
	}
}
