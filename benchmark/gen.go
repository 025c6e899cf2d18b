package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/scenario"
)

// Every input the program under test receives is generated here from
// the one benchmark seed. The amount of simulated work is kept the same
// for every seed on purpose — the figure experiments' cost swings by
// tens of percent with their job seed (fig14 quick: 1.5–1.9 s), which
// would drown a 10 % regression bound — so a seed changes what is cheap
// to change without changing the work: run order, the broadcast
// topology's jitter, roots and policy order, the serve job seeds (whose
// cost is seed-insensitive) and the op order.

// figureJobSeed is the job seed of the heavy figure experiments in
// dcf-suite and netvalid-par; see the comment above.
const figureJobSeed = 1

// subSeed derives an independent stream for one named use of the seed.
func subSeed(seed int64, use string) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, use)))
	return int64(binary.BigEndian.Uint64(h[:8]) >> 1) // 63 bits: never negative
}

// The shape of the coord-records sweep: cheap cells, many records (8 roots × 4 policies × 80 reps = 2 560 cells ≈ 10 k records).
const (
	recordsNodes = 8
	recordsReps  = 80
)

var recordsPolicies = []string{"flood", "tree", "gossip(0.7)", "krandom(3)"}

// recordsSpec generates the inline broadcast spec of coord-records and
// of serve-mix's large entries: a 2×4 grid at 70 m with ±10 m of seeded
// jitter (so every seed keeps the same neighbour structure and much the
// same coverage), every node a root, roots and policies in seeded order.
func recordsSpec(seed int64) json.RawMessage {
	rng := rand.New(rand.NewSource(subSeed(seed, "records-spec")))
	pos := make([]scenario.Position, recordsNodes)
	for i := range pos {
		pos[i] = scenario.Position{
			X: float64(i%4)*70 + rng.Float64()*20 - 10,
			Y: float64(i/4)*70 + rng.Float64()*20 - 10,
		}
	}
	policies := append([]string(nil), recordsPolicies...)
	rng.Shuffle(len(policies), func(i, j int) { policies[i], policies[j] = policies[j], policies[i] })
	spec := scenario.Spec{
		Name:     fmt.Sprintf("bench-records-%d", seed),
		Topology: scenario.TopologySpec{Kind: "explicit", Positions: pos, Rate: "11Mbps"},
		Broadcast: &scenario.BroadcastSpec{
			Policies:    policies,
			Roots:       rng.Perm(recordsNodes),
			Repetitions: recordsReps,
		},
	}
	b, err := json.Marshal(&spec)
	if err != nil {
		panic(err) // a literal spec always marshals
	}
	return b
}

// Op classes of serve-mix.
const (
	opHitSmall = iota
	opHitLarge
	opCold
	numOpClasses
)

var opClassNames = [numOpClasses]string{"hit-small", "hit-large", "cold"}

// mixOp is one serve-mix operation: its class and which job of the class
// it addresses (an index into the pre-warmed jobs for hits, a running
// ordinal for cold ops, so every cold op submits a job no one has run).
type mixOp struct {
	class int
	job   int
}

// mixer deals serve-mix batches. Every batch holds exactly the same
// number of ops of each class, in seeded order, so the batches of one
// run — and of runs with different seeds — do the same work.
type mixer struct {
	rng      *rand.Rand
	batchOps int
	perClass [numOpClasses]int
	warmed   [numOpClasses]int
	cold     int
}

// newMixer splits batchOps by share (percent per class, rounded down;
// what rounding leaves goes to hit-small, the cheapest class). warmed is
// the number of pre-warmed jobs a hit of each class picks from.
func newMixer(seed int64, batchOps int, share, warmed [numOpClasses]int) *mixer {
	m := &mixer{
		rng:      rand.New(rand.NewSource(subSeed(seed, "op-mix"))),
		batchOps: batchOps,
		warmed:   warmed,
	}
	rest := batchOps
	for c := range share {
		m.perClass[c] = batchOps * share[c] / 100
		rest -= m.perClass[c]
	}
	m.perClass[opHitSmall] += rest
	return m
}

// batch deals the next batch.
func (m *mixer) batch() []mixOp {
	ops := make([]mixOp, 0, m.batchOps)
	for class, n := range m.perClass {
		for i := 0; i < n; i++ {
			op := mixOp{class: class}
			if class == opCold {
				op.job = m.cold
				m.cold++
			} else {
				op.job = m.rng.Intn(m.warmed[class])
			}
			ops = append(ops, op)
		}
	}
	m.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// serveMixer deals serve-mix's batches for a seed.
func serveMixer(seed int64) *mixer {
	return newMixer(seed, serveBatchOps, serveShare, [numOpClasses]int{serveSmallJobs, serveLargeJobs, 0})
}

// mixHash identifies the op order of m's next batches, so two runs can
// be shown to have replayed the same mix.
func mixHash(m *mixer, batches int) string {
	h := sha256.New()
	for b := 0; b < batches; b++ {
		for _, op := range m.batch() {
			fmt.Fprintf(h, "%d:%d,", op.class, op.job)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
