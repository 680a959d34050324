#!/bin/sh
# benchguard.sh - benchstat-style regression guard for the engine
# micro-benchmarks. Runs the guarded benchmarks a few times, takes the
# minimum ns/op per benchmark (the noise-robust estimator), and compares
# it against the recorded baseline in BENCH_sweep.json
# (soa_router_core.Step*_after_ns).
#
# CI runners are not the machine that recorded the baseline, so the
# default mode warns when a benchmark lands more than WARN_PCT above
# baseline and fails only beyond FAIL_RATIO (a regression that big is an
# algorithmic break, not runner variance). Set BENCHGUARD_STRICT=1 to
# fail at the warn threshold too, for runs on the baseline hardware.
set -eu

cd "$(dirname "$0")/.."

WARN_PCT="${BENCHGUARD_WARN_PCT:-15}"
FAIL_RATIO="${BENCHGUARD_FAIL_RATIO:-2.5}"
COUNT="${BENCHGUARD_COUNT:-3}"
BENCHES='BenchmarkStepLowRate$|BenchmarkStepHighRate$|BenchmarkStepTelemetryOff$|BenchmarkStepChiplet$|BenchmarkStepHighRateLargeMesh$'

command -v jq >/dev/null || { echo "benchguard: jq not found" >&2; exit 1; }

out=$(go test -run '^$' -bench "$BENCHES" -benchtime 1s -count "$COUNT" .)
echo "$out"

status=0
# StepTelemetryOff shares StepHighRate's baseline: it is the same
# workload with the engine-meter nil checks compiled in, and the
# detached-telemetry contract says those checks are free.
for spec in \
    'StepLowRate|.soa_router_core.StepLowRate_after_ns' \
    'StepHighRate|.soa_router_core.StepHighRate_after_ns' \
    'StepTelemetryOff|.soa_router_core.StepHighRate_after_ns' \
    'StepChiplet|.chiplet_step.StepChiplet_ns' \
    'StepHighRateLargeMesh|.soa_router_core.StepHighRateLargeMesh_after_ns'; do
    name=${spec%%|*}
    base=$(jq -r "${spec#*|}" BENCH_sweep.json)
    [ "$base" = null ] && { echo "benchguard: no baseline for $name" >&2; exit 1; }
    # go test names the benchmark "BenchmarkX-<GOMAXPROCS>" on multi-core
    # machines and plain "BenchmarkX" only when GOMAXPROCS=1; accept both
    # (exact match on field 1, so StepHighRate never picks up
    # StepHighRateLargeMesh).
    cur=$(echo "$out" | awk -v b="Benchmark${name}" \
        '$1 == b || index($1, b "-") == 1 { if (min == "" || $3 + 0 < min + 0) min = $3 } END { print min }')
    [ -n "$cur" ] || { echo "benchguard: Benchmark${name} produced no result" >&2; exit 1; }
    verdict=$(awk -v c="$cur" -v b="$base" -v w="$WARN_PCT" -v f="$FAIL_RATIO" 'BEGIN {
        pct = (c / b - 1) * 100
        printf "Benchmark%s: %.0f ns/op vs baseline %.0f (%+.1f%%)\n", "'"$name"'", c, b, pct
        if (c > b * f) print "FAIL"
        else if (pct > w) print "WARN"
        else print "OK"
    }')
    echo "$verdict" | head -1
    case "$verdict" in
        *FAIL)
            echo "benchguard: Benchmark${name} regressed past ${FAIL_RATIO}x baseline" >&2
            status=1 ;;
        *WARN)
            echo "benchguard: Benchmark${name} more than ${WARN_PCT}% over baseline" >&2
            [ "${BENCHGUARD_STRICT:-0}" = 1 ] && status=1 ;;
    esac
done
exit $status
