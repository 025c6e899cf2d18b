#!/usr/bin/env bash
# ci.sh — the repo's gate: formatting, vet, build, tests, and a race run
# over the parallel experiment engine.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== benchmark module (its own go.mod: ./... above never compiles it against sim/phy)"
go vet -C benchmark .
go test -C benchmark .

echo "== internal/sim stays off container/heap"
if grep -l '"container/heap"' internal/sim/*.go; then
    echo "internal/sim must keep its inlined value heap" >&2
    exit 1
fi

echo "== record-log structure gate (one writer, one validator, one line predicate: internal/scenario/sink)"
# Outside the sink package and tests, no Go line may spell the completion
# marker, test a line's first byte for '#' (sink.IsRecord is the one
# predicate — dist.attempt's worker-protocol control-line switch goes
# through it too, so there is no exempt site), name a .part file or
# rename one into place. Two files use tmp+rename without being record
# logs and are named here: dist.Run's markerless merged.jsonl and the
# cache's index.json.
STRAY="$(grep -rnE --include='*.go' '"#done |\[0\] *[!=]= *'"'#'"'|\.part"|os\.Rename\(' internal cmd |
    grep -v '_test\.go:' | grep -v '^internal/scenario/sink/' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -vE '^internal/dist/coord\.go:[0-9]+:.*(mergedPart :=|os\.Rename\(mergedPart, )' |
    grep -vE '^internal/serve/cache\.go:[0-9]+:.*os\.Rename\(tmp, c\.indexPath\(\)\)' || true)"
if [ -n "$STRAY" ]; then
    echo "record-log format handled outside internal/scenario/sink:" >&2
    echo "$STRAY" >&2
    exit 1
fi

echo "== coordinator single-owner gate (internal/dist: one loop goroutine owns the run state)"
# The coordinator's loop owns every piece of scheduling and merge state,
# so non-test Go under internal/dist declares no mutex and injects no
# cancellation from another goroutine; and no dist test sleeps to wait
# for a state it could observe.
OWNERS="$(grep -rnE --include='*.go' 'sync\.(RW)?Mutex|context\.(AfterFunc|WithCancelCause)' internal/dist |
    grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
SLEEPS="$(grep -rn --include='*.go' 'time\.Sleep' internal/dist | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
if [ -n "$OWNERS$SLEEPS" ]; then
    echo "internal/dist must keep its single-owner loop and sleep-free tests:" >&2
    printf '%s\n' "$OWNERS" "$SLEEPS" >&2
    exit 1
fi

echo "== resolver gate (internal/dist/job.go is the one place a name becomes work)"
# dist.Job.Target maps a name to an experiment or a scenario spec, and
# dist.Catalogue lists the names it accepts. No other non-test Go under
# internal/ or cmd/ looks a name up in either registry.
LOOKUPS="$(grep -rnE --include='*.go' 'exp\.Find\(|scenario\.Lookup\(|scenario\.Names\(|exp\.Aliases\(' internal cmd |
    grep -v '_test\.go:' | grep -v '^internal/dist/job\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
if [ -n "$LOOKUPS" ]; then
    echo "name lookups outside internal/dist/job.go (resolve through dist.Job.Target or dist.Catalogue):" >&2
    echo "$LOOKUPS" >&2
    exit 1
fi

echo "== go test -race (parallel experiment engine + shard coordinator + serve layer + trace + obs)"
go test -race ./internal/experiments/... ./internal/dist/... ./internal/serve ./internal/trace ./internal/obs/...

echo "== go test -race -count=10 (serve warm-submit attach path against the TTL janitor)"
go test -race -count=10 -run 'WarmSubmit|AttachVsJanitor' ./internal/serve

echo "== fuzz (5s each: a sealed log on disk, a completion marker line, a record line against encoding/json)"
go test ./internal/scenario/sink -run '^$' -fuzz '^FuzzValidateLog$' -fuzztime=5s
go test ./internal/scenario/sink -run '^$' -fuzz '^FuzzParseDoneMarker$' -fuzztime=5s
go test ./internal/scenario/sink -run '^$' -fuzz '^FuzzDecodeJSONL$' -fuzztime=5s

echo "== scenario schema gate (round-trip parse/marshal goldens)"
go test ./internal/scenario -run 'TestGolden|TestBuiltinsMarshalParse' -count=1

echo "== scenario smoke (meshopt fig quickstart at quick scale)"
go run ./cmd/meshopt fig quickstart -scale quick -o /dev/null

echo "== shard smoke (fig10 as 2 shards + merge == unsharded, byte-for-byte)"
SHARD_TMP="$(mktemp -d)"
SERVE_PID=""
trap 'test -n "$SERVE_PID" && kill "$SERVE_PID" 2>/dev/null; rm -rf "$SHARD_TMP"' EXIT
go build -o "$SHARD_TMP/meshopt" ./cmd/meshopt
"$SHARD_TMP/meshopt" fig 10 -scale quick -seed 4 -o "$SHARD_TMP/full.jsonl" >/dev/null
"$SHARD_TMP/meshopt" fig 10 -scale quick -seed 4 -shard 0/2 -workers 1 -o "$SHARD_TMP/s0.jsonl" >/dev/null
"$SHARD_TMP/meshopt" fig 10 -scale quick -seed 4 -shard 1/2 -o "$SHARD_TMP/s1.jsonl" >/dev/null
"$SHARD_TMP/meshopt" merge -o "$SHARD_TMP/merged.jsonl" "$SHARD_TMP/s0.jsonl" "$SHARD_TMP/s1.jsonl" >/dev/null
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/merged.jsonl"

echo "== pprof smoke (fig10 -pprof-cpu/-pprof-mem write profiles without perturbing the stream)"
"$SHARD_TMP/meshopt" fig 10 -scale quick -seed 4 -pprof-cpu "$SHARD_TMP/cpu.pprof" \
    -pprof-mem "$SHARD_TMP/mem.pprof" -o "$SHARD_TMP/prof.jsonl" >/dev/null
test -s "$SHARD_TMP/cpu.pprof"
test -s "$SHARD_TMP/mem.pprof"
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/prof.jsonl"

echo "== coord smoke (fig10, 3 local workers: mid-run worker kill, bounded retries, resume)"
# Phase 1: the fault schedule kills shard 1's worker after 2 records on
# every attempt, so the coordinator must exhaust its retries and fail —
# while still checkpointing the healthy shards 0 and 2.
if MESHOPT_FAULT='1/kill@2' "$SHARD_TMP/meshopt" coord 10 -scale quick -seed 4 -shards 3 -workers 3 \
    -retries 2 -dir "$SHARD_TMP/run" >/dev/null 2>&1; then
    echo "coord should have failed while shard 1's worker was being killed" >&2
    exit 1
fi
test -f "$SHARD_TMP/run/shard_0.jsonl"
test -f "$SHARD_TMP/run/shard_2.jsonl"
test ! -f "$SHARD_TMP/run/shard_1.jsonl"
# Phase 2: resume re-dispatches only shard 1; the merged output must be
# byte-identical to the unsharded run.
"$SHARD_TMP/meshopt" coord 10 -scale quick -seed 4 -shards 3 -workers 3 -dir "$SHARD_TMP/run" \
    -o "$SHARD_TMP/coord.jsonl" >/dev/null 2>"$SHARD_TMP/coord.log"
grep -q 'msg="reusing checkpoint" shard=0 shards=3' "$SHARD_TMP/coord.log"
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/coord.jsonl"
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/run/merged.jsonl"

echo "== chaos smoke (fig10 under a seeded fault schedule: kill + slow worker + stealing, bytes identical)"
# Shard 1's first attempt is killed after 2 records; shard 2's worker is
# slowed per record, which with -steal-after armed exercises the steal
# path (frontier stall -> kill -> re-dispatch, prefix hash-verified).
# Whatever schedule the race picks, the merged bytes must equal the
# unsharded run.
MESHOPT_FAULT='seed=7,1/kill@2x1,2/slow=5ms' "$SHARD_TMP/meshopt" coord 10 -scale quick -seed 4 \
    -shards 3 -workers 3 -retries 3 -steal-after 1s -dir "$SHARD_TMP/chaos" \
    -o "$SHARD_TMP/chaos.jsonl" >/dev/null 2>"$SHARD_TMP/chaos.log"
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/chaos.jsonl"
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/chaos/merged.jsonl"

echo "== template-pool smoke (coord -worker-cmd: a hung worker under /bin/sh is killed at -timeout, bytes identical)"
# Shard 1's first attempt wedges after 2 records. The template runs the
# worker under a shell, so -timeout must kill the shell's whole process
# group for the attempt to end and be retried.
MESHOPT_FAULT='1/hang@2x1' "$SHARD_TMP/meshopt" coord 10 -scale quick -seed 4 -shards 3 -workers 2 \
    -worker-cmd "$SHARD_TMP/meshopt work" -timeout 2s -progress -dir "$SHARD_TMP/tpool" \
    -o "$SHARD_TMP/tpool.jsonl" >/dev/null 2>"$SHARD_TMP/tpool.log"
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/tpool.jsonl"
grep -Eq 'merged ([0-9]+)/\1 cells' "$SHARD_TMP/tpool.log"

echo "== tracing smoke (coord -spans: report decomposes the capture, record bytes untouched)"
# A traced 3-worker coord run must leave the merged stream byte-identical
# to the untraced unsharded run (spans are out-of-band), and `meshopt
# report` over the capture must decompose it: a nonempty critical path
# and per-slot accounting.
"$SHARD_TMP/meshopt" coord 10 -scale quick -seed 4 -shards 3 -workers 3 -dir "$SHARD_TMP/trun" \
    -spans "$SHARD_TMP/coord.spans.json" -o "$SHARD_TMP/traced.jsonl" >/dev/null 2>&1
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/traced.jsonl"
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/trun/merged.jsonl"
"$SHARD_TMP/meshopt" report "$SHARD_TMP/coord.spans.json" >"$SHARD_TMP/report.txt"
grep -q 'critical path (' "$SHARD_TMP/report.txt"
grep -q 'dispatch' "$SHARD_TMP/report.txt"
grep -q 'slots: ' "$SHARD_TMP/report.txt"

echo "== broadcast smoke (dissemination family: fig + spec file + 2-shard merge + chaos-steal coord, bytes identical)"
"$SHARD_TMP/meshopt" fig broadcast -scale quick -seed 4 -o "$SHARD_TMP/bc.jsonl" >/dev/null
"$SHARD_TMP/meshopt" fig examples/broadcast.json -scale quick -o /dev/null
"$SHARD_TMP/meshopt" fig broadcast -scale quick -seed 4 -shard 0/2 -o "$SHARD_TMP/bc0.jsonl" >/dev/null
"$SHARD_TMP/meshopt" fig broadcast -scale quick -seed 4 -shard 1/2 -o "$SHARD_TMP/bc1.jsonl" >/dev/null
"$SHARD_TMP/meshopt" merge -o "$SHARD_TMP/bcm.jsonl" "$SHARD_TMP/bc0.jsonl" "$SHARD_TMP/bc1.jsonl" >/dev/null
cmp "$SHARD_TMP/bc.jsonl" "$SHARD_TMP/bcm.jsonl"
# The chaos case drives the steal suffix-dispatch: shard 1 is killed
# once, shard 2 wedges mid-cell until the frontier stall steals it and
# the thief resumes at the stolen shard's merge frontier.
MESHOPT_FAULT='seed=7,1/kill@2x1,2/hang@6x1' "$SHARD_TMP/meshopt" coord broadcast -scale quick -seed 4 \
    -shards 3 -workers 3 -retries 3 -steal-after 1s -dir "$SHARD_TMP/bchaos" \
    -o "$SHARD_TMP/bchaos.jsonl" >/dev/null 2>"$SHARD_TMP/bchaos.log"
cmp "$SHARD_TMP/bc.jsonl" "$SHARD_TMP/bchaos.jsonl"
cmp "$SHARD_TMP/bc.jsonl" "$SHARD_TMP/bchaos/merged.jsonl"

echo "== trace smoke (record fig10 -> replay exits 0; capture leaves non-trace bytes untouched; seed diff exits nonzero)"
"$SHARD_TMP/meshopt" trace record 10 -scale quick -seed 4 -o "$SHARD_TMP/rec4.jsonl" >/dev/null
"$SHARD_TMP/meshopt" trace replay 10 -scale quick -seed 4 -trace "$SHARD_TMP/rec4.jsonl" >/dev/null
grep -v '"series":"trace"' "$SHARD_TMP/rec4.jsonl" | cmp - "$SHARD_TMP/full.jsonl"
"$SHARD_TMP/meshopt" trace diff "$SHARD_TMP/rec4.jsonl" "$SHARD_TMP/rec4.jsonl" >/dev/null
"$SHARD_TMP/meshopt" trace record 10 -scale quick -seed 5 -o "$SHARD_TMP/rec5.jsonl" >/dev/null
if "$SHARD_TMP/meshopt" trace diff "$SHARD_TMP/rec4.jsonl" "$SHARD_TMP/rec5.jsonl" >/dev/null; then
    echo "trace diff should exit nonzero on seed-perturbed recordings" >&2
    exit 1
fi

echo "== serve smoke (submit fig10 twice: cold compute, then cache hit; both byte == meshopt fig)"
# start_serve NAME [flags]: start a server on a free port with its
# output in $SHARD_TMP/NAME.{out,log}; sets SERVE_PID and ADDR.
start_serve() {
    local name="$1"
    shift
    "$SHARD_TMP/meshopt" serve -addr 127.0.0.1:0 "$@" >"$SHARD_TMP/$name.out" 2>"$SHARD_TMP/$name.log" &
    SERVE_PID=$!
    ADDR=""
    for _ in $(seq 100); do
        ADDR="$(sed -n 's/.*listening on \(http:[^ ]*\).*/\1/p' "$SHARD_TMP/$name.out")"
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    test -n "$ADDR" || { cat "$SHARD_TMP/$name.log" >&2; exit 1; }
}
start_serve serve -cache "$SHARD_TMP/cache"
"$SHARD_TMP/meshopt" submit 10 -addr "$ADDR" -scale quick -seed 4 \
    -o "$SHARD_TMP/sub1.jsonl" >/dev/null 2>"$SHARD_TMP/sub1.log"
"$SHARD_TMP/meshopt" submit 10 -addr "$ADDR" -scale quick -seed 4 \
    -o "$SHARD_TMP/sub2.jsonl" >/dev/null 2>"$SHARD_TMP/sub2.log"
grep -q "cache: hit" "$SHARD_TMP/sub2.log"
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/sub1.jsonl"
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/sub2.jsonl"
# Same for a broadcast job: the repeat submission must be a pure cache
# hit served through the index fast path, byte == meshopt fig.
"$SHARD_TMP/meshopt" submit broadcast -addr "$ADDR" -scale quick -seed 4 \
    -o "$SHARD_TMP/bsub1.jsonl" >/dev/null 2>"$SHARD_TMP/bsub1.log"
"$SHARD_TMP/meshopt" submit broadcast -addr "$ADDR" -scale quick -seed 4 \
    -o "$SHARD_TMP/bsub2.jsonl" >/dev/null 2>"$SHARD_TMP/bsub2.log"
grep -q "cache: hit" "$SHARD_TMP/bsub2.log"
cmp "$SHARD_TMP/bc.jsonl" "$SHARD_TMP/bsub1.jsonl"
cmp "$SHARD_TMP/bc.jsonl" "$SHARD_TMP/bsub2.jsonl"

echo "== observability smoke (/metrics counters live, /v1/stats JSON, pprof reachable)"
# After the cache-hit resubmissions above, the Prometheus text must show
# nonzero cache-hit and job counters, the stats snapshot must be valid
# JSON with a job table, and the pprof index must be mounted.
"$SHARD_TMP/meshopt" stats -addr "$ADDR" -metrics >"$SHARD_TMP/metrics.txt"
grep -Eq '^meshopt_cache_hits_total [1-9]' "$SHARD_TMP/metrics.txt"
grep -Eq '^meshopt_serve_jobs_done_total [1-9]' "$SHARD_TMP/metrics.txt"
grep -q '^# TYPE meshopt_runner_cell_seconds histogram' "$SHARD_TMP/metrics.txt"
"$SHARD_TMP/meshopt" stats -addr "$ADDR" >"$SHARD_TMP/stats.json" # not piped: grep -q closing early is a SIGPIPE under pipefail
grep -q '"jobs"' "$SHARD_TMP/stats.json"
"$SHARD_TMP/meshopt" stats -addr "$ADDR" -watch 100ms -samples 2 >"$SHARD_TMP/watch.txt"
test "$(wc -l <"$SHARD_TMP/watch.txt")" -eq 2
grep -q 'jobs queued=' "$SHARD_TMP/watch.txt"
grep -q 'Δdone' "$SHARD_TMP/watch.txt"
"$SHARD_TMP/meshopt" stats -addr "$ADDR" -path /debug/pprof/ >"$SHARD_TMP/pprof.html"
grep -qi 'pprof' "$SHARD_TMP/pprof.html"
grep -q '^# TYPE meshopt_build_info gauge' "$SHARD_TMP/metrics.txt"
grep -Eq '^meshopt_queue_wait_seconds_count [1-9]' "$SHARD_TMP/metrics.txt"
kill "$SERVE_PID" && wait "$SERVE_PID" 2>/dev/null
SERVE_PID=""

echo "== serve import smoke (a coord run directory imported into a fresh cache serves hits, byte == meshopt fig)"
start_serve serve2 -cache "$SHARD_TMP/cache2" -import "$SHARD_TMP/chaos"
"$SHARD_TMP/meshopt" submit 10 -addr "$ADDR" -scale quick -seed 4 \
    -o "$SHARD_TMP/isub.jsonl" >/dev/null 2>"$SHARD_TMP/isub.log"
grep -q "cache: hit" "$SHARD_TMP/isub.log"
cmp "$SHARD_TMP/full.jsonl" "$SHARD_TMP/isub.jsonl"
"$SHARD_TMP/meshopt" submit 10 -addr "$ADDR" -scale quick -seed 4 -from 20 \
    -o "$SHARD_TMP/ifrom.jsonl" >/dev/null 2>/dev/null
tail -n +21 "$SHARD_TMP/full.jsonl" | cmp - "$SHARD_TMP/ifrom.jsonl"
kill "$SERVE_PID" && wait "$SERVE_PID" 2>/dev/null
SERVE_PID=""

echo "== benchdiff (allocs/op and events/op may not grow between the two newest BENCH_<n>.json snapshots)"
mapfile -t BENCHES < <(ls BENCH_*.json 2>/dev/null | sort -V)
if [ "${#BENCHES[@]}" -ge 2 ]; then
    scripts/benchdiff.sh "${BENCHES[-2]}" "${BENCHES[-1]}"
else
    echo "benchdiff: fewer than two BENCH_<n>.json snapshots, skipping"
fi

echo "CI OK"
