#!/usr/bin/env bash
# Tier-1 + static-invariant CI flow for the osnoise module.
#
# Order matters: cheap structural checks first (build, vet, noisevet),
# then the race-instrumented test suite, then a short fuzz smoke over
# the trace codec so a corpus regression cannot land silently.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== noisevet (internal/analysis suite)"
# -stats prints a per-analyzer findings count to stderr so the CI log
# shows each analyzer ran, even when the tree is clean. -staleignore
# additionally fails the run on //noisevet:ignore or
# //noisevet:coldpath directives that suppress nothing: a stale
# exemption is a latent hole the next refactor falls through.
go run ./cmd/noisevet -stats -staleignore ./...

echo "== noisevet timing budget"
# The suite must stay cheap enough to run on every push: the full
# 14-analyzer run over ./... (load + type-check + analyses) has to
# finish inside the budget. -timing prints the per-analyzer split to
# stderr so a regression is attributable from the CI log alone, and
# -benchjson appends the dated per-analyzer entry to the suite's
# timing history (extend-only; the file is a JSON array of runs). The
# binary is prebuilt so compile time is not billed to the suite.
vetdir="$(mktemp -d)"
go build -o "$vetdir/noisevet" ./cmd/noisevet
budget_ms=30000
start_ns="$(date +%s%N)"
"$vetdir/noisevet" -timing -benchjson results/BENCH_noisevet.json ./...
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
rm -rf "$vetdir"
echo "noisevet suite: ${elapsed_ms} ms (budget ${budget_ms} ms)"
if [ "$elapsed_ms" -gt "$budget_ms" ]; then
    echo "noisevet suite blew its ${budget_ms} ms budget (${elapsed_ms} ms)" >&2
    exit 1
fi

echo "== escape-analysis baseline (//noisevet:hotpath files)"
# One-sided gate: a NEW compiler-reported heap escape in a hot-path
# file fails the run (the hotpath analyzer catches patterns; this
# catches what only the compiler's escape analysis can see).
scripts/escape_baseline.sh

echo "== doc cross-links (files + section anchors)"
# Markdown links must resolve and ARCHITECTURE/DESIGN §-references
# must name sections that still exist — inserting a section and
# renumbering the rest is exactly the edit that silently strands
# references in README, DESIGN, and package godoc.
scripts/doclink.sh

echo "== doc lint (noisevet doccomment analyzer)"
# Redundant with the full suite above, but a dedicated step keeps the
# failure mode legible: this one is "an exported identifier in the
# audited packages lost its doc comment", nothing else.
go run ./cmd/noisevet -only doccomment ./...

echo "== go test -race"
go test -race ./...

echo "== benchmark module (perfbench)"
# perfbench/ is its own Go module, so the root ./... never compiles it;
# it calls the noise entry points and sets Options.Epochs, so a change
# to internal/noise can break the benchmark without this step.
(cd perfbench && go vet ./... && go test ./...)

echo "== corruption suite (trace fault injector, race-instrumented)"
# The deterministic fault injector sweeps every mutation over every
# encoding and feeds the result to every reader entry point; any panic
# or untyped error from corrupted bytes fails the run. Part of the
# -race suite above, but a dedicated step keeps the failure legible.
go test -race -run 'TestCorruption|TestMutations|TestValidTrace|TestWrongMagic' \
    ./internal/trace/corrupt

echo "== fuzz smoke: noisevet directive parser"
# The //noisevet:* directive grammar is parsed from arbitrary source
# comments; its checked-in corpus under
# internal/analysis/directive/testdata/fuzz replays in the plain test
# run, and a short live fuzz keeps the corpus honest.
go test ./internal/analysis/directive -run='^$' -fuzz='^FuzzParse$' -fuzztime=10s

echo "== fuzz smoke: trace codec + decoder surfaces"
# -fuzz accepts a single target per invocation; smoke each codec fuzzer
# briefly. FuzzParse (paraver) is covered by its seed corpus in the
# regular run above; the checked-in corpora under
# internal/trace/testdata/fuzz replay during the plain test run too.
for target in FuzzRead FuzzReadCompressed FuzzReadAny \
              FuzzDecoder FuzzOpenRaw FuzzReadParallel; do
    go test ./internal/trace -run="^$" -fuzz="^${target}\$" -fuzztime=10s
done

echo "== fault-injection suite (cluster crash/straggler/hang, race-instrumented)"
# The resilience layer: seeded crash/straggler/hang schedules executed
# on virtual time across worker counts, checkpoint/restart recovery,
# degraded-mode allreduce, and the seed-determinism (bit-identical
# twice) checks. Part of the -race suite above; the dedicated step
# keeps the failure mode legible.
go test -race -run 'TestFaulted|TestCrash|TestCheckpoint|TestHang|TestStraggler|TestDegraded|TestAllRanksFailed|TestFaultOnDeadRank|TestSchedule' \
    ./internal/cluster/...

echo "== cancellation suite (goroutine-leak regression, race-instrumented)"
# Cancelling every parallel entry point mid-run across shard counts
# must return the typed ErrCancelled error with a partial result and
# leave runtime.NumGoroutine() at its baseline.
go test -race -run 'TestCancel|TestRunCancelled|TestReadParallelCancelled' \
    ./internal/noise ./internal/trace ./internal/cluster/... ./internal/mpi

echo "== daemon soak (multi-tenant streaming ingest, race-instrumented)"
# The noised daemon's concurrency contract: 1000 concurrent tenant
# streams through the router with per-tenant windows bit-identical to
# the batch analyzer, plus an end-to-end soak with both transports
# (HTTP + NOISED/1) live at once and a graceful drain. Both tests
# assert runtime.NumGoroutine() back to baseline — the dynamic half of
# the zero-leak guarantee (goroleak is the static half). Part of the
# -race suite above; the dedicated step keeps the failure legible.
go test -race -run 'TestRouterSoak|TestDaemonSoakMixedTransports' \
    ./internal/daemon/...

echo "== cancellation smoke: -timeout exits with the documented code"
# A 1 ms deadline against a multi-second analysis must exit 3 — cleanly
# and promptly, never a deadlock or a goroutine dump. `timeout 60`
# guards the "never hangs" half of the contract. The binaries are built
# first because `go run` collapses every program failure to exit 1.
smokedir="$(mktemp -d)"
go build -o "$smokedir/" ./cmd/lttng-noise ./cmd/noisereport ./cmd/noisebench
"$smokedir/lttng-noise" -app AMG -duration 30s -report=false \
    -trace "$smokedir/smoke.lttn"
rc=0
timeout 60 "$smokedir/noisereport" -parallel 4 -timeout 1ms \
    "$smokedir/smoke.lttn" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "cancellation smoke: noisereport -timeout 1ms exited $rc, want 3" >&2
    exit 1
fi
rc=0
timeout 60 "$smokedir/noisebench" -exp ext1 -timeout 1ms >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "cancellation smoke: noisebench -timeout 1ms exited $rc, want 3" >&2
    exit 1
fi
rm -rf "$smokedir"

echo "== pipeline benchmark smoke"
# A small-trace run of the analysis-pipeline benchmark: exercises the
# sequential baseline, the sharded raw path at each shard count, the
# epoch-split replay, and the bit-identity check (the run aborts if any
# report diverges). The JSON lands in a scratch file — committed
# baselines in results/ are regenerated deliberately, not by CI.
go run ./cmd/noisebench -pipeline -pipeline-events 100000 -pipeline-reps 1 \
    -pipeline-epochs 4 -json "$(mktemp -d)/BENCH_pipeline.json"

echo "== pipeline regression gate (1M events)"
# Full-size run gated against the recorded performance trajectory: the
# best parallel wall time may not regress more than 10% relative to the
# last comparable entry (same GOMAXPROCS and event count) appended to
# results/BENCH_pipeline.json. Incomparable histories gate nothing and
# the run says "no comparable baseline" instead of "passed", so a new
# machine shape is visible until it records its own baseline. CI
# never appends — the trajectory grows only by a deliberate
# `noisebench -pipeline -pipeline-append results/BENCH_pipeline.json`.
go run ./cmd/noisebench -pipeline -pipeline-events 1000000 -pipeline-reps 3 \
    -pipeline-gate results/BENCH_pipeline.json -pipeline-gate-pct 10

echo "CI OK"
