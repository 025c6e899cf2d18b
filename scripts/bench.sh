#!/usr/bin/env bash
# bench.sh — run the full benchmark suite and record a machine-readable
# snapshot so successive PRs accumulate a performance trajectory.
#
# Usage: scripts/bench.sh [output.json]
#   default output: the next free BENCH_<n>.json in the repo root, so
#   successive PRs never clobber an earlier snapshot. An explicit output
#   path that already exists is refused for the same reason.
#
# The JSON maps benchmark name -> {ns_per_op, bytes_per_op, allocs_per_op},
# plus events_per_op for benchmarks that report simulator events, taking
# the fastest of -count=3 runs (the usual noise-robust choice).
# A leading "_env" object records the machine (GOMAXPROCS, CPU model, go
# version) so cross-snapshot noise — e.g. container throttling between
# PRs — is diagnosable from the snapshots alone.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-}"
if [ -z "$OUT" ]; then
    n=1
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
    OUT="BENCH_${n}.json"
elif [ -e "$OUT" ]; then
    echo "refusing to overwrite existing $OUT (pass a fresh path or let bench.sh pick the next free index)" >&2
    exit 1
fi
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

GO_VERSION="$(go env GOVERSION)"
GOOS_ARCH="$(go env GOOS)/$(go env GOARCH)"
CPU_MODEL="$(awk -F': *' '/model name/{print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
if [ -z "$CPU_MODEL" ]; then
    CPU_MODEL="$(sysctl -n machdep.cpu.brand_string 2>/dev/null || echo unknown)"
fi
CPU_MODEL="$(printf '%s' "$CPU_MODEL" | tr -d '"\\')"
MAXPROCS="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)}"

go test -run=NONE -bench=. -benchmem -count=3 . | tee "$RAW"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""; events = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "events/op") events = $i
    }
    if (ns == "") next
    if (!(name in best) || ns + 0 < best[name] + 0) {
        best[name] = ns
        bbytes[name] = bytes
        ballocs[name] = allocs
        bevents[name] = events
    }
}
END {
    for (name in best)
        printf "%s\t%s\t%s\t%s\t%s\n", name, best[name], bbytes[name], ballocs[name], bevents[name]
}' "$RAW" | sort | awk -F'\t' \
    -v go_version="$GO_VERSION" -v goos_arch="$GOOS_ARCH" \
    -v cpu_model="$CPU_MODEL" -v maxprocs="$MAXPROCS" '
BEGIN {
    printf "{\n  \"_env\": {\"go_version\": \"%s\", \"goos_goarch\": \"%s\", \"cpu_model\": \"%s\", \"gomaxprocs\": %s}", \
        go_version, goos_arch, cpu_model, maxprocs
    first = 0
}
{
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": {\"ns_per_op\": %s", $1, $2
    if ($3 != "") printf ", \"bytes_per_op\": %s", $3
    if ($4 != "") printf ", \"allocs_per_op\": %s", $4
    if ($5 != "") printf ", \"events_per_op\": %s", $5
    printf "}"
}
END { printf "\n}\n" }' > "$OUT"

echo "wrote $OUT"
