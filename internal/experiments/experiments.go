// Package experiments reproduces every figure of the paper's evaluation
// (Figs. 3-14) on the simulated mesh substrate. Each figure suite is an
// exp.Experiment — a deterministic cell enumeration, a private-state
// per-cell body, and a streaming reduction — registered in the exp
// registry (see register.go); the engine in internal/experiments/exp
// runs, streams, shards and merges them uniformly, and exp.Run returns
// each figure's structured result (with a Print method emitting the
// series the paper plots). Scale parameters let benches run abbreviated
// versions while the CLI runs paper-scale ones.
package experiments

import (
	"math/rand"

	"repro/internal/experiments/exp"
	"repro/internal/measure"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Scale sets the fidelity/runtime trade-off of an experiment run; it
// lives in the exp package alongside the engine, aliased here for the
// many call sites that predate the unified API.
type Scale = exp.Scale

// PairSpec is a candidate link pair for pairwise experiments.
type PairSpec struct {
	L1, L2 topology.Link
}

// SamplePairs picks up to n node-disjoint link pairs from the mesh that
// are decodable at rate r, deterministically from seed.
func SamplePairs(nw *topology.Network, r phy.Rate, n int, seed int64) []PairSpec {
	links := nw.Links(r)
	rng := rand.New(rand.NewSource(seed))
	var out []PairSpec
	seen := map[[4]int]bool{}
	for attempts := 0; attempts < 50*n && len(out) < n; attempts++ {
		a := links[rng.Intn(len(links))]
		b := links[rng.Intn(len(links))]
		if a.Src == b.Src || a.Src == b.Dst || a.Dst == b.Src || a.Dst == b.Dst {
			continue
		}
		key := [4]int{a.Src, a.Dst, b.Src, b.Dst}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, PairSpec{L1: a, L2: b})
	}
	return out
}

// FlowConfig is one multi-hop, multi-flow validation scenario (§4.5): a
// mesh, a set of end-to-end flows, and the data rate in use.
type FlowConfig struct {
	Seed  int64
	Rate  phy.Rate
	Flows []measure.Flow
	// MaxHops bounds route lengths (the paper uses up to 4).
	MaxHops int
}

// GenerateConfigs produces n deterministic flow configurations over the
// 18-node mesh, alternating 1 Mb/s and 11 Mb/s and using 2-6 flows, as in
// the paper's network validation. Flow endpoints are drawn from node
// pairs connected (within 4 hops) over links decodable at the config's
// rate — the paper likewise picks scenarios that are actually routable.
func GenerateConfigs(seed int64, n int) []FlowConfig {
	rng := rand.New(rand.NewSource(seed))
	out := make([]FlowConfig, 0, n)
	for i := 0; i < n; i++ {
		rate := phy.Rate11
		if i%2 == 1 {
			rate = phy.Rate1
		}
		cfg := FlowConfig{
			Seed:    seed + int64(i)*101,
			Rate:    rate,
			MaxHops: 4,
		}
		nFlows := 2 + rng.Intn(5)
		nw := topology.Mesh18(cfg.Seed)
		hops := hopMatrix(nw, rate)
		nodes := len(nw.Nodes)
		seen := map[[2]int]bool{}
		for attempts := 0; len(cfg.Flows) < nFlows && attempts < 400; attempts++ {
			src, dst := rng.Intn(nodes), rng.Intn(nodes)
			if src == dst || seen[[2]int{src, dst}] {
				continue
			}
			if h := hops[src][dst]; h < 1 || h > cfg.MaxHops {
				continue
			}
			seen[[2]int{src, dst}] = true
			cfg.Flows = append(cfg.Flows, measure.Flow{Src: src, Dst: dst})
		}
		out = append(out, cfg)
	}
	return out
}

// hopMatrix computes min-hop distances over links decodable at rate r
// (BFS from every node; -1 = unreachable).
func hopMatrix(nw *topology.Network, r phy.Rate) [][]int {
	n := len(nw.Nodes)
	adj := make([][]int, n)
	for _, l := range nw.Links(r) {
		adj[l.Src] = append(adj[l.Src], l.Dst)
	}
	out := make([][]int, n)
	for src := 0; src < n; src++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		out[src] = dist
	}
	return out
}

// Mesh builds the mesh for a config.
func (c FlowConfig) Mesh() *topology.Network { return topology.Mesh18(c.Seed) }

// probePeriodFor enforces a duty-cycle floor on probing: periods shorter
// than ~25 DATA-probe airtimes would congest the network with its own
// measurement traffic (especially at 1 Mb/s where a 1470-byte probe takes
// 12 ms on the air), corrupting the very losses being measured. The
// paper's 0.5 s period at 1-11 Mb/s respects this comfortably.
func probePeriodFor(r phy.Rate, sc Scale) sim.Time {
	floor := 40 * phy.Airtime(r, 1470)
	if sc.ProbePeriod > floor {
		return sc.ProbePeriod
	}
	return floor
}
