package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core/conflict"
	"repro/internal/core/controller"
	"repro/internal/core/feasibility"
	"repro/internal/core/optimize"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/experiments/exp"
	"repro/internal/experiments/runner"
	"repro/internal/lp"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/phy"
	"repro/internal/scenario/sink"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The per-layer probes. Each is a fixed amount of work against one
// layer's public functions, timed from outside; together they produce
// every per-layer metric on every traced run, whatever the workload, so
// a layer's number is always there to set beside an end-to-end one.
// README.md says which end-to-end metric each should move.

// layerMetrics collects per-layer values by metric name.
type layerMetrics map[string]float64

// timed measures fn's wall time and this process's allocations.
func timed(fn func()) (d time.Duration, mallocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	d = time.Since(t0)
	runtime.ReadMemStats(&after)
	return d, float64(after.Mallocs - before.Mallocs)
}

// medianOf runs fn reps times and returns the median duration.
func medianOf(reps int, fn func()) time.Duration {
	v := make([]float64, reps)
	for i := range v {
		d, _ := timed(fn)
		v[i] = float64(d)
	}
	return time.Duration(median(v))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// --- sim ----------------------------------------------------------------

const (
	simTimers = 64
	simSlot   = 20 * sim.Microsecond
	simEvents = 1_000_000 // fired events per probe: the probe schedules them, so the count is known
)

// simProbe runs simTimers self-rescheduling slot timers until simEvents
// have fired. With churn, every eighth firing also stops and re-arms a
// far-off guard timer, the pattern of a MAC backing off under carrier
// sense; the guards never fire, so the fired count stays known.
func simProbe(churn bool) (d time.Duration, mallocs float64, fired int) {
	s := sim.New(1)
	guards := make([]*sim.Timer, simTimers)
	for i := 0; i < simTimers; i++ {
		i := i
		n := 0
		var tick func()
		tick = func() {
			fired++
			n++
			if churn && n%8 == 0 {
				guards[i].Stop()
				guards[i] = s.After(1000*simSlot, func() { fired = -1 << 40 })
			}
			s.After(simSlot, tick)
		}
		guards[i] = s.After(1000*simSlot, func() { fired = -1 << 40 })
		s.After(simSlot, tick)
	}
	if !churn {
		for _, g := range guards {
			g.Stop()
		}
	}
	d, mallocs = timed(func() { s.Run(sim.Time(simEvents/simTimers) * simSlot) })
	return d, mallocs, fired
}

func probeSim(m layerMetrics) error {
	d, mallocs, fired := simProbe(false)
	if fired != simEvents {
		return fmt.Errorf("sim probe fired %d events, scheduled %d", fired, simEvents)
	}
	m["sim.events_per_s"] = float64(fired) / d.Seconds()
	m["sim.allocs_per_event"] = mallocs / float64(fired)
	d, _, fired = simProbe(true)
	if fired != simEvents {
		return fmt.Errorf("sim churn probe fired %d events, scheduled %d", fired, simEvents)
	}
	m["sim.timer_churn_ns"] = float64(d) / float64(fired)
	return nil
}

// --- mac / phy ----------------------------------------------------------

const macSimSeconds = 4

// probeMAC saturates both links of a carrier-sensing two-link pair and
// charges the host time to the frames the medium counted.
func probeMAC(m layerMetrics) {
	nw := topology.TwoLink(1, topology.CS, phy.Rate11, phy.Rate11)
	links := []topology.Link{nw.Link1, nw.Link2}
	start := nw.Sim.Now()
	d, mallocs := timed(func() {
		measure.Simultaneous(nw.Network, links, traffic.DefaultPayload, macSimSeconds*sim.Second)
	})
	var frames int64
	for a := range nw.Nodes {
		for b := range nw.Nodes {
			if a != b {
				frames += nw.Medium.Counters(a, b).Sent
			}
		}
	}
	m["mac.sim_s_per_host_s"] = (nw.Sim.Now() - start).Seconds() / d.Seconds()
	m["mac.frame_ns"] = float64(d) / float64(frames)
	m["mac.allocs_per_frame"] = mallocs / float64(frames)

	// A simulated statistic, not a speed: the share of link 1's frames
	// its receiver decoded while hidden from a saturated interferer
	// (partial capture at 1 Mb/s). A change meant only to make the
	// simulator faster must leave it bit-identical.
	ia := topology.TwoLink(1, topology.IA, phy.Rate1, phy.Rate1)
	measure.Simultaneous(ia.Network, []topology.Link{ia.Link1, ia.Link2}, traffic.DefaultPayload, macSimSeconds*sim.Second)
	data := ia.Medium.Counters(ia.Link1.Src, ia.Link1.Dst)
	m["phy.delivery_ratio"] = float64(data.Received) / float64(data.Sent)
}

type nopListener struct{}

func (nopListener) CarrierSense(bool)  {}
func (nopListener) Receive(*phy.Frame) {}

// fanoutSender retransmits a broadcast frame as soon as the last one
// leaves the air.
type fanoutSender struct {
	nopListener
	med   *phy.Medium
	radio *phy.Radio
	left  int
}

func (f *fanoutSender) TxDone(fr *phy.Frame) {
	if f.left--; f.left > 0 {
		f.med.Transmit(f.radio, fr)
	}
}

type nopTx struct{ nopListener }

func (nopTx) TxDone(*phy.Frame) {}

const (
	fanoutRadios = 32
	fanoutFrames = 20_000
)

// probePHY times one radio broadcasting to 31 others in range: the
// medium's per-frame fan-out with no MAC above it.
func probePHY(m layerMetrics) {
	s := sim.New(1)
	med := phy.NewMedium(s, phy.DefaultConfig())
	radios := make([]*phy.Radio, fanoutRadios)
	for i := range radios {
		radios[i] = med.AddRadio(phy.Position{X: float64(i%8) * 30, Y: float64(i/8) * 30})
		radios[i].SetListener(nopTx{})
	}
	sender := &fanoutSender{med: med, radio: radios[0], left: fanoutFrames}
	radios[0].SetListener(sender)
	fr := &phy.Frame{Src: 0, Dst: phy.Broadcast, Kind: phy.KindProbe, Bytes: 1024, Rate: phy.Rate11}
	d, _ := timed(func() {
		med.Transmit(radios[0], fr)
		s.Run(sim.Time(fanoutFrames+1) * fr.Airtime())
	})
	m["phy.fanout_frame_ns"] = float64(d) / float64(fanoutFrames-sender.left)
}

// --- core / lp ----------------------------------------------------------

const (
	coreLinks  = 24
	coreClique = 6 // 4 cliques of 6 links: 6^4 = 1296 maximal independent sets
	coreFlows  = 8
)

// probeCore times the model-building and optimisation steps on a
// 24-link conflict graph of fixed shape with seeded capacities and
// routes, and the controller's whole planning step on a 3×3 grid.
func probeCore(seed int64, m layerMetrics) error {
	g := conflict.NewGraph(coreLinks)
	for c := 0; c < coreLinks/coreClique; c++ {
		for i := 0; i < coreClique; i++ {
			for j := i + 1; j < coreClique; j++ {
				g.AddEdge(coreClique*c+i, coreClique*c+j)
			}
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "core")))
	caps := make([]float64, coreLinks)
	for i := range caps {
		caps[i] = 1e6 * (1 + 5*rng.Float64())
	}
	routes := make([][]int, coreFlows)
	for s := range routes {
		routes[s] = rng.Perm(coreLinks)[:3]
	}
	m["core.mis_ms"] = ms(medianOf(5, func() { g.MaximalIndependentSets() }))
	var region *feasibility.Region
	m["core.region_build_ms"] = ms(medianOf(5, func() { region = feasibility.Build(caps, g) }))
	prob := &optimize.Problem{Region: region, Routes: routes}
	var solveErr error
	// A quarter of the default 400 Frank–Wolfe steps: each is one LP like
	// the one timed below, and 100 of them show the solver's cost.
	m["core.solve_ms"] = ms(medianOf(3, func() {
		_, solveErr = optimize.Solve(prob, optimize.ProportionalFair, optimize.Options{Iterations: 100})
	}))
	if solveErr != nil {
		return fmt.Errorf("optimize.Solve: %w", solveErr)
	}

	// One oracle LP of the kind Solve issues per Frank–Wolfe step:
	// variables [y (flows), alpha (extreme points)], maximise sum y.
	buildLP := func() *lp.Problem {
		s, k := len(routes), region.K()
		obj := make([]float64, s+k)
		for i := 0; i < s; i++ {
			obj[i] = 1
		}
		p := lp.NewProblem(s+k, obj)
		for l := 0; l < region.L(); l++ {
			row := make([]float64, s+k)
			for f, links := range routes {
				for _, ll := range links {
					if ll == l {
						row[f] = 1
					}
				}
			}
			for j := 0; j < k; j++ {
				row[s+j] = -region.Points[j][l] / 1e6
			}
			p.AddConstraint(row, lp.LE, 0)
		}
		simplex := make([]float64, s+k)
		for j := 0; j < k; j++ {
			simplex[s+j] = 1
		}
		p.AddConstraint(simplex, lp.EQ, 1)
		return p
	}
	p := buildLP()
	var lpErr error
	m["lp.solve_us"] = ms(medianOf(5, func() { _, _, lpErr = lp.Solve(p) })) * 1e3
	if lpErr != nil {
		return fmt.Errorf("lp.Solve: %w", lpErr)
	}

	// The paper's online planning latency: Compute after a full probing
	// window on a 3×3 grid with two crossing flows.
	pos := make([]phy.Position, 9)
	for i := range pos {
		pos[i] = phy.Position{X: float64(i%3) * 70, Y: float64(i/3) * 70}
	}
	nw := topology.New(1, phy.DefaultConfig(), pos, phy.Rate11)
	cfg := controller.DefaultConfig(phy.Rate11)
	cfg.ProbePeriod = 100 * sim.Millisecond
	c := controller.New(nw, []controller.Flow{{Src: 0, Dst: 8}, {Src: 2, Dst: 6}}, cfg)
	c.ProbeFullWindow()
	var planErr error
	m["core.plan_ms"] = ms(medianOf(5, func() { _, planErr = c.Compute() }))
	if planErr != nil {
		return fmt.Errorf("controller.Compute: %w", planErr)
	}
	return nil
}

// --- experiments --------------------------------------------------------

// probeExperiments splits netvalid-par's cell into its two halves by
// calling them directly on the workload's configurations.
func probeExperiments(m layerMetrics) error {
	sc := exp.Quick()
	var prepare, inject time.Duration
	for _, cfg := range experiments.GenerateConfigs(figureJobSeed, sc.Configs) {
		var v *experiments.NetValidation
		var err error
		d, _ := timed(func() { v, err = experiments.PrepareValidation(cfg, sc) })
		prepare += d
		if err != nil {
			continue // an unroutable configuration: the experiment skips it too
		}
		for _, region := range []*feasibility.Region{v.RegionLIR(experiments.LIRThreshold), v.RegionTwoHop()} {
			d, _ := timed(func() {
				_, err = v.OptimizeAndInject(region, optimize.ProportionalFair, experiments.ValidationScales, sc)
			})
			inject += d
			if err != nil {
				return fmt.Errorf("OptimizeAndInject: %w", err)
			}
		}
	}
	m["experiments.prepare_s"] = prepare.Seconds()
	m["experiments.inject_s"] = inject.Seconds()
	m["experiments.prepare_share"] = prepare.Seconds() / (prepare + inject).Seconds()
	return nil
}

// --- exp / runner -------------------------------------------------------

// spanDurations returns the durations, in seconds, of the spans called
// name among spans.
func spanDurations(spans []span.SpanData, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur.Seconds())
		}
	}
	return out
}

// probeExp times each figure of a dcf-suite pass under its own span, and
// netvalid at one and at two workers for the pool's scaling efficiency
// and the share of a parallel pass its longest cell takes.
func probeExp(ctx context.Context, b *bench, rec *span.Recorder, m layerMetrics) (passResult, error) {
	var res passResult
	dcf, err := setupDCFSuite(b)
	if err != nil {
		return res, err
	}
	r, err := dcf.pass(ctx)
	if err != nil {
		return res, err
	}
	res = r
	spans := rec.Snapshot()
	for _, f := range dcfFigures {
		m["exp."+f.name+"_s"] = median(spanDurations(spans, "bench."+f.name))
	}

	nv, err := newFigJob("netvalid", figureJobSeed)
	if err != nil {
		return res, err
	}
	const reps = 2
	var one, two []float64
	for i := 0; i < reps; i++ {
		for _, workers := range []int{1, b.env.Parallel} {
			runner.SetWorkers(workers)
			var ok bool
			d, _ := timed(func() {
				err = spanned(ctx, fmt.Sprintf("bench.netvalid.w%d", workers), func(ctx context.Context) error {
					var err error
					ok, err = nv.run(ctx)
					return err
				})
			})
			if err != nil {
				return res, err
			}
			res.count(ok)
			if workers == 1 {
				one = append(one, d.Seconds())
			} else {
				two = append(two, d.Seconds())
			}
		}
	}
	m["runner.scaling_efficiency"] = median(one) / (float64(b.env.Parallel) * median(two))

	// The longest cell of the last parallel run against that run.
	spans = rec.Snapshot()
	runs := map[int]span.SpanData{} // exp.run spans by id
	for _, s := range spans {
		if s.Name == "exp.run" && s.Attr("experiment") == "netvalid" {
			runs[s.ID] = s
		}
	}
	share := 0.0
	for _, s := range spans {
		if run, ok := runs[s.Parent]; ok && s.Name == "cell" && run.Dur > 0 {
			share = max(share, s.Dur.Seconds()/run.Dur.Seconds())
		}
	}
	m["exp.cell_max_share"] = share

	const noopCells = 100_000
	cells := make([]struct{}, noopCells)
	for _, p := range []struct {
		name    string
		workers int
	}{{"runner.noop_cell_ns", 1}, {"runner.noop_cell_2w_ns", b.env.Parallel}} {
		d := medianOf(3, func() {
			err = runner.StreamCtx(context.Background(), p.workers, cells,
				func(i int, _ struct{}) int { return i }, func(int, int) {})
		})
		if err != nil {
			return res, err
		}
		m[p.name] = float64(d) / noopCells
	}
	return res, nil
}

// --- sink / dist --------------------------------------------------------

// probeRecords measures everything that handles the 10k-record stream:
// the unsharded run to a file (the baseline dist.Run is compared with),
// sink encode and decode, the coordinator's phases from the spans
// dist.Run emits, checkpoint validation and exp.Merge.
func probeRecords(ctx context.Context, b *bench, rec *span.Recorder, m layerMetrics) (passResult, error) {
	var res passResult
	if err := b.buildMeshopt(); err != nil {
		return res, err
	}
	job := recordsJob(b.seed, b.seed, coordShards)
	ref, err := recordsReference(job)
	if err != nil {
		return res, err
	}
	e, sc, err := job.Resolve()
	if err != nil {
		return res, err
	}
	refPath := filepath.Join(b.tmp, "unsharded.jsonl")
	unsharded := func() error {
		f, err := os.Create(refPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runner.SetWorkers(b.env.Parallel)
		s := sink.NewJSONL(f)
		if _, err := exp.Run(e, job.Seed, sc, exp.Options{Sink: s}); err != nil {
			return err
		}
		return s.Close()
	}

	// dist.Run and the unsharded run alternate, so drift hits both.
	const reps = 3
	var freshS, resumeS, unshardedS []float64
	var last coordOutcome
	lastDir := ""
	for i := 0; i < reps; i++ {
		d, _ := timed(func() { err = unsharded() })
		if err != nil {
			return res, err
		}
		unshardedS = append(unshardedS, d.Seconds())
		dir, err := os.MkdirTemp(b.tmp, "rundir-")
		if err != nil {
			return res, err
		}
		if last, err = coordPass(ctx, b, job, ref, dir); err != nil {
			return res, err
		}
		lastDir = dir
		freshS = append(freshS, last.freshS)
		resumeS = append(resumeS, last.resumeS)
		res.count(last.freshOK)
		res.count(last.resOK)
	}
	got, err := fileDigest(refPath)
	res.count(err == nil && got == ref)
	m["dist.fresh_s"] = median(freshS)
	m["dist.resume_s"] = median(resumeS)
	m["dist.overhead_ratio"] = median(freshS) / median(unshardedS)
	m["dist.dispatches"] = float64(last.dispatches())
	m["dist.retries"] = float64(last.retries())
	m["dist.steals"] = float64(last.steals())
	m["dist.resume_reused"] = float64(len(last.resume.Reused))
	spans := rec.Snapshot()
	m["dist.spawn_ms"] = median(spanDurations(spans, "spawn")) * 1e3
	m["dist.ready_ms"] = median(spanDurations(spans, "ready.wait")) * 1e3
	m["dist.stream_ms"] = median(spanDurations(spans, "stream")) * 1e3

	// What a resume pays per checkpoint it reuses, and the rate it
	// hashes at.
	var verifyS []float64
	var bytes int64
	shardFiles := make([]string, coordShards)
	for i := range shardFiles {
		shardFiles[i] = filepath.Join(lastDir, fmt.Sprintf("shard_%d.jsonl", i))
		var n int64
		ok := false
		d, _ := timed(func() { _, n, _, ok = dist.ValidateRecordsFileSum(shardFiles[i]) })
		if !ok {
			return res, fmt.Errorf("checkpoint %s does not validate", shardFiles[i])
		}
		verifyS = append(verifyS, d.Seconds())
		bytes += n
	}
	total := 0.0
	for _, v := range verifyS {
		total += v
	}
	m["dist.verify_ms"] = median(verifyS) * 1e3
	m["dist.validate_mb_per_s"] = float64(bytes) / 1e6 / total

	d := medianOf(3, func() {
		ins := make([]io.Reader, 0, coordShards)
		for _, p := range shardFiles {
			f, oerr := os.Open(p)
			if oerr != nil {
				err = oerr
				return
			}
			defer f.Close()
			ins = append(ins, f)
		}
		_, err = exp.Merge(ins, io.Discard)
	})
	if err != nil {
		return res, fmt.Errorf("exp.Merge: %w", err)
	}

	var recs []sink.Record
	dDec, aDec := timed(func() {
		f, oerr := os.Open(refPath)
		if oerr != nil {
			err = oerr
			return
		}
		defer f.Close()
		recs, err = sink.DecodeJSONLStream(f)
	})
	if err != nil {
		return res, fmt.Errorf("sink.DecodeJSONLStream: %w", err)
	}
	records := len(recs)
	m["exp.merge_records_per_s"] = float64(records) / d.Seconds()
	m["sink.decode_ns_per_record"] = float64(dDec) / float64(records)
	m["sink.decode_allocs_per_record"] = aDec / float64(records)
	dEnc, aEnc := timed(func() {
		s := sink.NewJSONL(io.Discard)
		for _, r := range recs {
			if err = s.Write(r); err != nil {
				return
			}
		}
		err = s.Close()
	})
	if err != nil {
		return res, err
	}
	m["sink.encode_ns_per_record"] = float64(dEnc) / float64(records)
	m["sink.encode_allocs_per_record"] = aEnc / float64(records)
	return res, nil
}

// --- serve --------------------------------------------------------------

// Ops per class in the serve probe: enough for a p99 of small hits and a
// p90 of large hits and cold jobs with minBeyond samples beyond each.
var serveProbeOps = [numOpClasses]int{1000, 100, 100}

// counterValue sums a counter family's series in a snapshot.
func counterValue(snap obs.Snapshot, name string) float64 {
	total := 0.0
	for _, f := range snap.Families {
		if f.Name == name {
			for _, s := range f.Series {
				total += s.Value
			}
		}
	}
	return total
}

// histogramDelta returns the bounds and cumulative counts a histogram
// gained between two snapshots.
func histogramDelta(before, after obs.Snapshot, name string) (bounds []float64, cum []uint64, total uint64) {
	find := func(snap obs.Snapshot) *obs.SeriesSnapshot {
		for _, f := range snap.Families {
			if f.Name == name && len(f.Series) > 0 {
				return &f.Series[0]
			}
		}
		return nil
	}
	a := find(after)
	if a == nil {
		return nil, nil, 0
	}
	total = a.Count
	bef := find(before)
	if bef != nil {
		total -= bef.Count
	}
	for i, bk := range a.Buckets {
		c := bk.Count
		if bef != nil && i < len(bef.Buckets) {
			c -= bef.Buckets[i].Count
		}
		bounds = append(bounds, bk.LE)
		cum = append(cum, c)
	}
	return bounds, cum, total
}

func probeServe(ctx context.Context, b *bench, m layerMetrics) (passResult, error) {
	var res passResult
	before := obs.Default.Snapshot()
	s, err := newServeInst(b)
	if s != nil {
		defer s.close()
	}
	if err != nil {
		return res, err
	}
	large := recordsJob(b.seed, b.seed, 1)
	var key string
	m["serve.jobkey_us"] = ms(medianOf(50, func() { key, err = serve.JobKey(large) })) * 1e3
	if err != nil {
		return res, err
	}
	ok := true
	m["serve.lookup_large_ms"] = ms(medianOf(50, func() {
		_, _, _, hit := s.srv.Cache().Lookup(key)
		ok = ok && hit
	}))
	if !ok {
		return res, fmt.Errorf("serve cache lost the pre-warmed 1 MB entry")
	}

	var ops []mixOp
	rng := rand.New(rand.NewSource(subSeed(b.seed, "serve-probe")))
	for class, n := range serveProbeOps {
		for i := 0; i < n; i++ {
			op := mixOp{class: class, job: i}
			if class != opCold {
				op.job = rng.Intn(len(s.jobs[class]))
			}
			ops = append(ops, op)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	t0 := time.Now()
	res = s.batch(ctx, ops)
	wall := time.Since(t0)
	res.failed += s.verifyCold()
	after := obs.Default.Snapshot()

	m["serve.ops_per_s"] = float64(len(ops)) / wall.Seconds()
	for _, q := range []struct {
		metric, key string
		p           float64
	}{
		{"serve.hit_small_p50_ms", "hit-small_ms", 50},
		{"serve.hit_small_p99_ms", "hit-small_ms", 99},
		{"serve.hit_large_p50_ms", "hit-large_ms", 50},
		{"serve.hit_large_p90_ms", "hit-large_ms", 90},
		{"serve.cold_p50_ms", "cold_ms", 50},
		{"serve.cold_p90_ms", "cold_ms", 90},
		{"serve.submit_large_p50_ms", "submit-large_ms", 50},
		{"serve.records_large_p50_ms", "records-large_ms", 50},
	} {
		if m[q.metric], err = mustPercentile(q.metric, s.detail.get(q.key), q.p); err != nil {
			return res, err
		}
	}
	m["serve.coalesced_share"] = float64(s.dupCoal.Load()) / float64(s.dupPOST.Load())
	hits := counterValue(after, "meshopt_cache_hits_total") - counterValue(before, "meshopt_cache_hits_total")
	misses := counterValue(after, "meshopt_cache_misses_total") - counterValue(before, "meshopt_cache_misses_total")
	m["serve.cache_hit_share"] = hits / (hits + misses)
	bounds, cum, total := histogramDelta(before, after, "meshopt_queue_wait_seconds")
	m["serve.queue_wait_p50_ms"] = histogramQuantile(bounds, cum, total, 0.5) * 1e3
	return res, nil
}
