#!/usr/bin/env bash
# benchdiff.sh — compare two bench.sh snapshots (BENCH_<n>.json).
#
# Usage: scripts/benchdiff.sh OLD.json NEW.json [threshold_pct]
#
# Prints a per-benchmark table of ns/op, B/op, allocs/op and events/op
# deltas. allocs/op and events/op (simulator events fired) are
# deterministic per build, so they are the signal, and the gate is
# one-sided: an increase in either past the threshold (default 2%) is
# flagged and fails the script, while a decrease is marked "improved"
# and passes. events/op is compared only where both snapshots record
# it. ns/op deltas are reported for context only and never fail the
# gate: wall-clock numbers from shared or throttled machines (see each
# snapshot's _env block) are too noisy to gate on. Benchmarks present
# in only one snapshot are listed as added/removed.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/benchdiff.sh OLD.json NEW.json [threshold_pct]" >&2
    exit 2
fi
OLD="$1"
NEW="$2"
THRESH="${3:-2}"
for f in "$OLD" "$NEW"; do
    if [ ! -r "$f" ]; then
        echo "benchdiff: cannot read $f" >&2
        exit 2
    fi
done

# Each snapshot is one JSON object per line per benchmark (bench.sh
# writes one entry per line), so a line-oriented awk parse is exact for
# the files bench.sh produces.
parse() {
    awk -F'"' '
    /"ns_per_op"/ {
        name = $2
        if (name == "_env") next
        ns = ""; bytes = ""; allocs = ""; events = ""
        n = split($0, parts, /[,{}]/)
        for (i = 1; i <= n; i++) {
            if (parts[i] ~ /"ns_per_op":/)     { sub(/.*: */, "", parts[i]); ns = parts[i] }
            if (parts[i] ~ /"bytes_per_op":/)  { sub(/.*: */, "", parts[i]); bytes = parts[i] }
            if (parts[i] ~ /"allocs_per_op":/) { sub(/.*: */, "", parts[i]); allocs = parts[i] }
            if (parts[i] ~ /"events_per_op":/) { sub(/.*: */, "", parts[i]); events = parts[i] }
        }
        printf "%s\t%s\t%s\t%s\t%s\n", name, ns, bytes, allocs, events
    }' "$1"
}

OLD_TSV="$(mktemp)"
NEW_TSV="$(mktemp)"
trap 'rm -f "$OLD_TSV" "$NEW_TSV"' EXIT
parse "$OLD" > "$OLD_TSV"
parse "$NEW" > "$NEW_TSV"

awk -F'\t' -v thresh="$THRESH" -v oldfile="$OLD" -v newfile="$NEW" '
function pct(old, new) { return old == 0 ? (new == 0 ? 0 : 999) : (new - old) * 100.0 / old }
FNR == NR { ons[$1] = $2; obytes[$1] = $3; oallocs[$1] = $4; oevents[$1] = $5; seen[$1] = 1; next }
{
    nns[$1] = $2; nbytes[$1] = $3; nallocs[$1] = $4; nevents[$1] = $5
    if (!($1 in seen)) added[$1] = 1
    order[++n] = $1
}
END {
    printf "%-55s %12s %12s %12s %12s\n", "benchmark", "ns/op Δ%", "B/op Δ%", "allocs/op Δ%", "events/op Δ%"
    fails = 0
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (name in added) {
            printf "%-55s %51s\n", name, "(added)"
            continue
        }
        dns = pct(ons[name], nns[name])
        db  = pct(obytes[name], nbytes[name])
        da  = pct(oallocs[name], nallocs[name])
        de  = 0
        events = "-"
        if (oevents[name] != "" && nevents[name] != "") {
            de = pct(oevents[name], nevents[name])
            events = sprintf("%+11.1f%%", de)
        }
        flag = ""
        if (da > thresh || de > thresh) { flag = "  <-- regressed"; fails++ }
        else if (da < -thresh || de < -thresh) flag = "  improved"
        printf "%-55s %+11.1f%% %+11.1f%% %+11.1f%% %12s%s\n", name, dns, db, da, events, flag
    }
    for (name in seen)
        if (!(name in nns)) printf "%-55s %51s\n", name, "(removed)"
    printf "\nns/op deltas are informational only: wall-clock is noisy across machines/throttling\n"
    printf "(compare the _env blocks of %s and %s).\n", oldfile, newfile
    if (fails > 0) {
        printf "FAIL: %d benchmark(s) grew allocs/op or events/op by more than %s%%\n", fails, thresh
        exit 1
    }
    printf "OK: no allocs/op or events/op increase beyond %s%%\n", thresh
}' "$OLD_TSV" "$NEW_TSV"
