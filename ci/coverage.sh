#!/usr/bin/env bash
# ci/coverage.sh [OUTDIR] — which code the program's entry points reach.
#
# Builds gradsim, cmd/dmlgrid, every examples/* program and the simbench
# driver with statement coverage over every package of the module, runs each
# entry point under GOCOVERDIR, then merges those counters with
# `go test -cover` over ./... (go tool covdata). Entry-point runs:
#
#   gradsim  -exp all, -exp scale, every determinism case of
#            .github/workflows/ci.yml (through ci/determinism.sh), one
#            -trace/-trace-jsonl/-metrics run, one -jobs and -zoo run, one
#            -arrivals run per -route policy, and one run per kind of
#            rejected input
#   simbench every workload at --size tiny, untraced and traced
#   dmlgrid  a two-site grid on stdin
#   examples every program under examples/
#
# Writes to OUTDIR (default coverage-out/):
#
#   unreached.txt  functions that no entry point and no test reaches
#   test-only.txt  functions that only tests reach
#   totals.txt     statement coverage of the entry points alone, and of the
#                  entry points plus the tests
#   entry.func, all.func  the `go tool cover -func` tables behind them
#
# A function is named FILE:NAME, FILE relative to the repository root and
# NAME without its receiver (internal/metasched/scheduler.go:quarantine).
# simbench's own package is left out: the lists cover the root module.
#
# Fails if any run exits non-zero, if unreached.txt names a function that
# ci/coverage-allow.txt does not list, or if the allowlist names a function
# that is no longer unreached. Allowlist lines are "FILE:NAME reason", and
# the reason is required; '#' starts a comment. Run from the repository root.
set -euo pipefail

out=${1:-coverage-out}
allow=ci/coverage-allow.txt
mkdir -p "$out"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
mkdir -p "$bin" "$work/entry" "$work/test" "$work/run"

pkgs=$(go list ./... | paste -sd, -)
cover=(-cover -covermode=set "-coverpkg=$pkgs")

echo "== building instrumented entry points" >&2
go build "${cover[@]}" -o "$bin/gradsim" ./cmd/gradsim
go build "${cover[@]}" -o "$bin/dmlgrid" ./cmd/dmlgrid
for d in examples/*/; do
    go build "${cover[@]}" -o "$bin/example-$(basename "$d")" "./$d"
done
# The driver's own package must be instrumented too, or the binary writes
# no counters; it is filtered out of the tables below. Root packages the
# driver does not link draw a warning each.
go -C simbench build -cover -covermode=set "-coverpkg=$pkgs,grads/simbench" -o "$bin/simbench" . 2>&1 |
    { grep -v '^warning: no packages being built depend on' || true; } >&2

export GOCOVERDIR=$work/entry
run() {
    echo "   $*" >&2
    "$@" >/dev/null
}

echo "== gradsim" >&2
run "$bin/gradsim" -exp all
run "$bin/gradsim" -exp scale
run "$bin/gradsim" -exp fig4 -trace "$work/run/t.json" -trace-jsonl "$work/run/t.jsonl" -metrics
run "$bin/gradsim" -jobs 'qr@0:n=3000,w=8,min=4,bid=40;farm@25:tasks=24,w=4,bid=3'
run "$bin/gradsim" -zoo 'fanout:width=24,ccr=4;eman' -heuristic heft
for route in rr least wrand ucb eps; do
    run "$bin/gradsim" -arrivals 'poisson@0-600:rate=0.2' -route "$route"
done
# Each kind of rejected input must make gradsim exit non-zero.
reject() {
    echo "   $* (must fail)" >&2
    if "$@" >/dev/null 2>&1; then
        echo "coverage: $* succeeded, want a rejection" >&2
        exit 1
    fi
}
reject "$bin/gradsim" -exp no-such-experiment
reject "$bin/gradsim" -faults 'bogus@1:x'
reject "$bin/gradsim" -jobs qr
reject "$bin/gradsim" -zoo nosuch
reject "$bin/gradsim" -zoo chain -heuristic nosuch
reject "$bin/gradsim" -arrivals 'poisson@0-10:rate=0.1' -route nosuch
reject "$bin/gradsim" -exp fig3 -csv
reject "$bin/gradsim" -shards 0

# Every determinism case of the CI matrix, as "case|args|args_b" lines.
cases=$(awk '
    function val(s) { sub(/^[^:]*: */, "", s); gsub(/^'\''|'\''$/, "", s); return s }
    /^ *- case: / { if (c != "") print c "|" a "|" b; c = val($0); a = ""; b = ""; next }
    /^ *args: /   { a = val($0) }
    /^ *args_b: / { b = val($0) }
    END           { if (c != "") print c "|" a "|" b }
' .github/workflows/ci.yml)
if [ -z "$cases" ]; then
    echo "coverage: no determinism cases found in .github/workflows/ci.yml" >&2
    exit 1
fi
while IFS='|' read -r name a b; do
    GRADSIM=$bin/gradsim ci/determinism.sh "$name" "$a" "$b" >/dev/null
    echo "   determinism case $name" >&2
done <<<"$cases"

echo "== simbench, dmlgrid and examples" >&2
for w in soak-broker serve-fleet dag-plan eman-run; do
    for t in 0 1; do
        run "$bin/simbench" --workload "$w" --seed 1 --seconds 0.1 --size tiny \
            --trace "$t" --out "$work/run/simbench"
    done
done
printf 'site A bw=1Gb lat=100us\nsite B bw=100Mb lat=1ms\ncluster a count=2 site=A\ncluster b count=2 site=B mhz=900\nwan A B bw=10Mb lat=20ms\n' |
    run "$bin/dmlgrid" -warmup 30 -
for d in examples/*/; do
    run "$bin/example-$(basename "$d")"
done

echo "== go test" >&2
unset GOCOVERDIR
go test "${cover[@]}" ./... -args -test.gocoverdir="$work/test" >"$work/test.log" ||
    { cat "$work/test.log" >&2; exit 1; }

# FILE:LINE:NAME PERCENT for every function, simbench's package left out.
functab() {
    go tool covdata textfmt -i="$1" -o "$work/prof"
    { head -1 "$work/prof"; grep -v -e '^mode:' -e '^grads/simbench/' "$work/prof"; } >"$work/prof.root"
    go tool cover -func="$work/prof.root"
}
functab "$work/entry" >"$out/entry.func"
functab "$work/entry,$work/test" >"$out/all.func"

# Join the two tables on FILE:LINE:NAME; print FILE:NAME for functions at
# 0.0% in the merged table (unreached) or only there above 0.0% (test-only).
# A package no entry point links (cmd/benchguard) is absent from the first.
awk -v unreached="$out/unreached.txt" -v testonly="$out/test-only.txt" '
    $1 == "total:" { next }
    {
        key = $1 $2; pct = $NF
        name = $1; sub(/^grads\//, "", name); sub(/:[0-9]+:$/, "", name); name = name ":" $2
    }
    FNR == NR { entry[key] = pct; next }
    pct == "0.0%" { print name > unreached; next }
    !(key in entry) || entry[key] == "0.0%" { print name > testonly }
' "$out/entry.func" "$out/all.func"
touch "$out/unreached.txt" "$out/test-only.txt"
sort -u -o "$out/unreached.txt" "$out/unreached.txt"
sort -u -o "$out/test-only.txt" "$out/test-only.txt"

{
    echo "entry points:         $(awk '$1 == "total:" { print $NF }' "$out/entry.func") of statements"
    echo "entry points + tests: $(awk '$1 == "total:" { print $NF }' "$out/all.func") of statements"
    echo "unreached functions:  $(wc -l <"$out/unreached.txt")"
    echo "test-only functions:  $(wc -l <"$out/test-only.txt")"
} | tee "$out/totals.txt"

# Gate: the unreached list must equal the allowlist, and every allowlist
# entry needs a reason.
fail=0
if awk '!/^[[:space:]]*(#|$)/ && NF < 2' "$allow" | grep .; then
    echo "FAIL: the $allow entries above give no reason" >&2
    fail=1
fi
awk '!/^[[:space:]]*(#|$)/ { print $1 }' "$allow" | sort -u >"$work/allowed"
if comm -23 "$out/unreached.txt" "$work/allowed" | grep .; then
    echo "FAIL: nothing reaches the functions above; delete them or add them to $allow with a reason" >&2
    fail=1
fi
if comm -13 "$out/unreached.txt" "$work/allowed" | grep .; then
    echo "FAIL: $allow lists the functions above, which are now reached or gone; drop them" >&2
    fail=1
fi
exit "$fail"
