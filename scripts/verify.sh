#!/usr/bin/env bash
# verify.sh — the repo's verification tiers in one command.
#
#   ./scripts/verify.sh          tier-1 only (what CI gates on)
#   ./scripts/verify.sh --hot    tier-1 plus the hot-path battery:
#                                vet and the -race hammer over the
#                                packages with hand-written kernels and
#                                lock-free aggregation paths, and the
#                                perfbench module's suite (its wrapper
#                                test is the check that a timed
#                                aggregator keeps every transport on its
#                                streaming path; tier-1 cannot see the
#                                separate module)
#   ./scripts/verify.sh --obs    tier-1 plus the observability battery:
#                                the -race hammer over the telemetry
#                                subsystem and the TCP transport that
#                                journals through it, plus the analytic
#                                <1% telemetry-overhead budget test
#   ./scripts/verify.sh --bench  tier-1 plus the performance regression
#                                gate: rerun the micro benchmarks and
#                                fail if any is slower than the latest
#                                committed BENCH_N.json beyond the
#                                tolerance (BENCH_TOLERANCE, default
#                                0.15 = 15%), or allocates more than
#                                the alloc tolerance allows above it
#                                (BENCH_ALLOC_TOLERANCE, default 0.25 =
#                                25% on allocs/op and B/op, gated only
#                                above the harness noise floors)
#   ./scripts/verify.sh --matrix tier-1 plus the scenario-matrix gate:
#                                run the committed 2x2x4 golden matrix
#                                (scripts/golden/matrix.json) end to end
#                                and diff every per-cell zero-time
#                                journal against scripts/golden/matrix/
#   ./scripts/verify.sh --hetero tier-1 plus the heterogeneous-federation
#                                battery: vet and -race over
#                                internal/hetero, the degenerate- and
#                                cross-transport-equivalence suites, and
#                                the golden 2-cluster 3-width cell
#                                (scripts/golden/hetero.json) diffed
#                                byte-for-byte against
#                                scripts/golden/hetero/
#
# Tiers combine: ./scripts/verify.sh --matrix --hetero runs tier-1 once,
# then each named tier in order. An unknown tier is an error.
#
# Tier-1 must pass on every commit. The hot-path battery is mandatory
# for changes touching internal/tensor (SIMD kernels, packed GEMM,
# scratch pools), internal/nn (fused lowering, panel caches),
# internal/algo (parallel deterministic reduction, shard fold) or
# internal/flnet (TCP transport rounds, aggregation tree, async quorum).
# The observability battery is mandatory for changes touching
# internal/telemetry or any code that records into it. The matrix gate
# is mandatory for changes touching internal/scenario or the algorithm
# registry — a diff means the exact arithmetic of a seeded federation
# changed, which must be deliberate (regenerate the goldens with
#   go run ./cmd/spatl-bench -matrix scripts/golden/matrix.json -out tmp
# and copy the *.jsonl over). The hetero battery is mandatory for
# changes touching internal/hetero or the cluster/slice wire frames in
# internal/comm (goldens regenerate the same way from
# scripts/golden/hetero.json). The bench gate is
# advisory (benchmarks are noisy on shared machines) but should be run
# before committing a new BENCH_N.json.
set -euo pipefail
cd "$(dirname "$0")/.."

for tier in "$@"; do
    case "$tier" in
        --hot | --bench | --matrix | --hetero | --obs) ;;
        *)
            echo "verify: unknown tier $tier (want --hot, --bench, --matrix, --hetero or --obs)" >&2
            exit 2
            ;;
    esac
done

tmpdirs=()
trap 'rm -rf "${tmpdirs[@]}"' EXIT

# golden_diff runs a scenario matrix and diffs every per-cell journal
# against the committed goldens, byte for byte.
golden_diff() {
    local label=$1 matrix=$2 goldens=$3 out ngold nout
    out=$(mktemp -d)
    tmpdirs+=("$out")
    go run ./cmd/spatl-bench -matrix "$matrix" -out "$out" >/dev/null
    for g in "$goldens"/*.jsonl; do
        if ! diff -u "$g" "$out/$(basename "$g")"; then
            echo "verify: journal drift vs golden $(basename "$g")" >&2
            exit 1
        fi
    done
    ngold=$(ls "$goldens"/*.jsonl | wc -l)
    nout=$(ls "$out"/*.jsonl | wc -l)
    if [[ "$ngold" != "$nout" ]]; then
        echo "verify: cell count drift: ran $nout cells, goldens have $ngold" >&2
        exit 1
    fi
    echo "== $label: $ngold cells byte-identical =="
}

echo "== tier-1: build =="
go build ./...
echo "== tier-1: tests =="
go test ./...

for tier in "$@"; do
    case "$tier" in
    --hot)
        echo "== hot path: vet =="
        go vet ./...
        echo "== hot path: race hammer =="
        go test -race ./internal/tensor ./internal/nn ./internal/algo ./internal/flnet
        echo "== hot path: shard/quorum/sparse hammer =="
        go test -race -run 'Shard|Tree|Async|Quorum|Massive|SSFL|MaskAgree|MaskStatic|MaskPat' \
            ./internal/algo ./internal/flnet ./internal/fl ./internal/nn ./internal/tensor
        echo "== hot path: streaming-fold hammer =="
        go test -race -count=1 -run 'Stream|Staging|Permutation|RoundCanonical' \
            ./internal/algo ./internal/fl ./internal/flnet
        echo "== hot path: perfbench suite =="
        (cd perfbench && go test ./...)
        ;;
    --bench)
        baseline=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1)
        if [[ -z "$baseline" ]]; then
            echo "verify: no BENCH_N.json baseline found" >&2
            exit 1
        fi
        echo "== bench gate: micro vs $baseline =="
        go run ./cmd/spatl-bench -micro -baseline "$baseline" -gate \
            -tolerance "${BENCH_TOLERANCE:-0.15}" \
            -alloc-tolerance "${BENCH_ALLOC_TOLERANCE:-0.25}"
        ;;
    --matrix)
        echo "== matrix gate: golden 2x2x4 scenario matrix =="
        golden_diff "matrix gate" scripts/golden/matrix.json scripts/golden/matrix
        ;;
    --hetero)
        echo "== hetero: vet =="
        go vet ./internal/hetero
        echo "== hetero: race hammer =="
        go test -race -count=1 ./internal/hetero
        echo "== hetero: equivalence suites =="
        go test -count=1 -run 'Degenerate|DeterministicAcross|HeteroCell' \
            ./internal/hetero ./internal/scenario
        go test -count=1 -run 'TestCrossTransportEquivalence/hetero' ./internal/flnet
        echo "== hetero: golden 2-cluster 3-width cell =="
        golden_diff hetero scripts/golden/hetero.json scripts/golden/hetero
        ;;
    --obs)
        echo "== observability: race hammer =="
        go test -race ./internal/telemetry ./internal/flnet
        echo "== observability: overhead budget =="
        go test -run TestTelemetryOverheadBudget -v ./internal/fl
        ;;
    esac
done

echo "verify: OK"
