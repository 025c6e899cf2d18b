package broadcast

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// lineNet hand-builds a loss-free n-node bidirectional chain with unit
// hop delay and gains that decay away from node 0, so the gain forest
// is exactly the 0→1→…→n-1 path.
func lineNet(n int) *Net {
	net := &Net{
		N:         n,
		Neighbors: make([][]int, n),
		BestIn:    make([]int, n),
		loss:      make([]float64, n*n),
		delay:     make([]sim.Time, n*n),
		gain:      make([]float64, n*n),
	}
	for i := range net.BestIn {
		net.BestIn[i] = -1
	}
	link := func(a, b int, g float64) {
		net.Neighbors[a] = append(net.Neighbors[a], b)
		net.delay[a*n+b] = sim.Millisecond
		net.gain[a*n+b] = g
	}
	for i := 0; i+1 < n; i++ {
		link(i, i+1, 2) // downstream link is the stronger one
		link(i+1, i, 1)
		net.BestIn[i+1] = i
	}
	return net
}

// starNet hand-builds a loss-free star: hub 0 linked to n-1 leaves.
func starNet(n int) *Net {
	net := &Net{
		N:         n,
		Neighbors: make([][]int, n),
		BestIn:    make([]int, n),
		loss:      make([]float64, n*n),
		delay:     make([]sim.Time, n*n),
		gain:      make([]float64, n*n),
	}
	for w := 1; w < n; w++ {
		net.Neighbors[0] = append(net.Neighbors[0], w)
		net.Neighbors[w] = []int{0}
		net.delay[w] = sim.Millisecond
		net.delay[w*n] = sim.Millisecond
		net.gain[w] = 1
		net.gain[w*n] = 1
		net.BestIn[w] = 0
	}
	net.BestIn[0] = 1
	return net
}

func TestFloodCoversLosslessLine(t *testing.T) {
	m := Run(lineNet(5), 0, Flood{}, nil, 1, nil, nil)
	if m.Reached != 5 || m.Coverage != 1 {
		t.Fatalf("flood on a lossless line should reach all 5 nodes, got %+v", m)
	}
	if m.Depth != 4 {
		t.Fatalf("line depth should be 4, got %d", m.Depth)
	}
	if m.Duplicates != 0 {
		// On a line, excluding the sender leaves exactly one forward
		// target per hop: no duplicates.
		t.Fatalf("flood on a line should be duplicate-free, got %d", m.Duplicates)
	}
	if len(m.Latencies) != 4 {
		t.Fatalf("want 4 non-root latencies, got %d", len(m.Latencies))
	}
}

func TestTreeFollowsGainForest(t *testing.T) {
	m := Run(lineNet(5), 0, Tree{}, nil, 1, nil, nil)
	if m.Reached != 5 {
		t.Fatalf("tree rooted at the forest root should reach all nodes, got %+v", m)
	}
	if m.Duplicates != 0 {
		t.Fatalf("forest relay from node 0 should be duplicate-free, got %d", m.Duplicates)
	}
	// From mid-chain, the root seed-floods both directions but forest
	// edges only point downstream: upstream stops after one hop.
	m = Run(lineNet(5), 2, Tree{}, nil, 1, nil, nil)
	if m.Reached != 4 {
		t.Fatalf("tree from node 2 should reach {1,2,3,4}, got %+v", m)
	}
}

func TestKRandomBoundsFanOut(t *testing.T) {
	m := Run(starNet(6), 0, KRandom{K: 2}, nil, 1, nil, nil)
	if m.Reached != 3 {
		t.Fatalf("krandom(2) from the hub should reach the hub plus 2 leaves, got %+v", m)
	}
}

func TestGossipZeroOneBehaviour(t *testing.T) {
	if m := Run(lineNet(5), 0, Gossip{P: 1}, nil, 1, nil, nil); m.Reached != 5 {
		t.Fatalf("gossip(1) should behave like flood, got %+v", m)
	}
}

func TestMaliciousNodeReceivesButDrops(t *testing.T) {
	flags := &Flags{
		Malicious:   make([]bool, 5),
		AbsentFrom:  make([]sim.Time, 5),
		AbsentUntil: make([]sim.Time, 5),
	}
	flags.Malicious[2] = true
	m := Run(lineNet(5), 0, Flood{}, flags, 1, nil, nil)
	if m.Reached != 3 {
		t.Fatalf("a malicious node 2 should cut the line at {0,1,2}, got %+v", m)
	}
}

func TestAbsentNodeMissesFrames(t *testing.T) {
	flags := &Flags{
		Malicious:   make([]bool, 5),
		AbsentFrom:  make([]sim.Time, 5),
		AbsentUntil: make([]sim.Time, 5),
	}
	flags.AbsentUntil[1] = 10 * sim.Second // absent for the whole run
	m := Run(lineNet(5), 0, Flood{}, flags, 1, nil, nil)
	if m.Reached != 1 {
		t.Fatalf("an absent node 1 should isolate the root, got %+v", m)
	}
	// The root itself is exempt from its own flags.
	flags = &Flags{
		Malicious:   []bool{true, false, false, false, false},
		AbsentFrom:  make([]sim.Time, 5),
		AbsentUntil: make([]sim.Time, 5),
	}
	if m := Run(lineNet(5), 0, Flood{}, flags, 1, nil, nil); m.Reached != 5 {
		t.Fatalf("root flags must be ignored, got %+v", m)
	}
}

func TestRunDeterministic(t *testing.T) {
	net := randomNet(7, 24)
	flags := DeriveFlags(42, net.N, AdversaryConfig{MaliciousFraction: 0.1, ChurnFraction: 0.1})
	a := Run(net, 3, Gossip{P: 0.7}, flags, 42, nil, nil)
	b := Run(net, 3, Gossip{P: 0.7}, flags, 42, nil, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different metrics:\n%+v\n%+v", a, b)
	}
}

func TestDeriveFlagsDeterministic(t *testing.T) {
	cfg := AdversaryConfig{MaliciousFraction: 0.1, ChurnFraction: 0.1}
	a := DeriveFlags(9, 20, cfg)
	b := DeriveFlags(9, 20, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different flags:\n%+v\n%+v", a, b)
	}
	c := DeriveFlags(10, 20, cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should derive different flags")
	}
	var nm, nc, both int
	for w := 0; w < 20; w++ {
		churned := a.AbsentUntil[w] > a.AbsentFrom[w]
		if a.Malicious[w] {
			nm++
		}
		if churned {
			nc++
		}
		if a.Malicious[w] && churned {
			both++
		}
	}
	if nm != 2 || nc != 2 || both != 0 {
		t.Fatalf("want exactly 2 malicious + 2 churned, disjoint; got %d/%d/%d overlap", nm, nc, both)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"flood", "flood"},
		{"tree", "tree"},
		{"gossip", "gossip(0.5)"},
		{"gossip(0.7)", "gossip(0.7)"},
		{"krandom", "krandom(2)"},
		{"krandom(4)", "krandom(4)"},
	}
	for _, c := range cases {
		p, err := ParsePolicy(c.in, 0, 0)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", c.in, err)
		}
		if p.Name() != c.want {
			t.Fatalf("ParsePolicy(%q).Name() = %q, want %q", c.in, p.Name(), c.want)
		}
	}
	// Spec-level defaults apply to the bare forms only.
	if p, _ := ParsePolicy("gossip", 0.9, 5); p.Name() != "gossip(0.9)" {
		t.Fatalf("bare gossip should take the supplied default, got %s", p.Name())
	}
	if p, _ := ParsePolicy("gossip(0.7)", 0.9, 5); p.Name() != "gossip(0.7)" {
		t.Fatalf("explicit parameter must win, got %s", p.Name())
	}
	for _, bad := range []string{"", "kadcast", "gossip(2)", "gossip(x)", "krandom(0)", "flood(1)", "gossip(0.7"} {
		if _, err := ParsePolicy(bad, 0, 0); err == nil {
			t.Fatalf("ParsePolicy(%q) should fail", bad)
		}
	}
}
