#!/usr/bin/env sh
# One-shot pre-merge gate: configure, build, lint, test.
#
#   tools/check.sh [--full | --lint-only | --trace-bench] [build-dir]
#
# Default: a full build, the wearscope_lint determinism & concurrency
# checks (hard failure on any finding), then the whole ctest suite —
# which already includes the `lint`, `chaos`, `perf` and `sched` labels
# (the thread-sweep equivalence gate and the fast bounded interleaving
# enumeration run as part of the regular tests).
# With --lint-only it builds just the linter, runs the whole-program
# analysis over the tree and writes BENCH_lint.json (wall time plus
# file/rule/finding counts) — the fast pre-commit loop, no ctest.
# With --trace-bench it builds the columnar perf suite and refreshes
# BENCH_columnar.json: the v3 encode/decode sweep and the
# sketch-vs-exact deltas — the numbers behind the v3 format's and the
# sketch mode's claims.
# With --fed it builds the federation path only and drives the
# partition/merge differential end to end: partitioned live runs at
# 1/2/4/8 processes over one small bundle, each cover federated by
# wearscope_merge --verify (byte-identical to the batch pipeline or the
# gate fails).
# With --full it additionally runs the sanitizer gates CONTRIBUTING.md
# requires — the chaos label, the ring/engine suites (push_n/pop_n index
# arithmetic across chunks), the query parser fuzz and the readers of the
# checked-in legacy trace fixtures under ASan+UBSan, and the concurrency
# tests (live engine, batch task pool, parallel trace decode, snapshot
# serving, federation) under TSan — plus a deep random-walk interleaving
# budget through the sched harness, and refreshes the BENCH_analysis.json
# sweep.  The live, serve and federation paths are timed end to end by
# perfbench/run.py instead.
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
full=0
lint_only=0
trace_bench=0
fed_gate=0
if [ "${1:-}" = "--full" ]; then
  full=1
  shift
elif [ "${1:-}" = "--lint-only" ]; then
  lint_only=1
  shift
elif [ "${1:-}" = "--trace-bench" ]; then
  trace_bench=1
  shift
elif [ "${1:-}" = "--fed" ]; then
  fed_gate=1
  shift
fi
build=${1:-"$root/build"}
jobs=$(nproc 2>/dev/null || echo 2)

echo "== configure ($build)"
cmake -B "$build" -S "$root" >/dev/null

if [ "$lint_only" -eq 1 ]; then
  echo "== build (linter only)"
  cmake --build "$build" -j "$jobs" --target wearscope_lint_tool
  echo "== lint (BENCH_lint.json)"
  "$build/tools/wearscope_lint" --root "$root" --error-on-findings \
    --bench-json "$root/BENCH_lint.json"
  echo "== OK"
  exit 0
fi

if [ "$fed_gate" -eq 1 ]; then
  echo "== build (federation path)"
  cmake --build "$build" -j "$jobs" \
    --target wearscope_gen wearscope_live_tool wearscope_merge
  work="$build/fed_gate_work"
  rm -rf "$work"
  mkdir -p "$work"
  echo "== generate (small bundle)"
  "$build/tools/wearscope_gen" --preset small --seed 5 \
    --out "$work/trace" --format binary >/dev/null
  for n in 1 2 4 8; do
    echo "== partitioned ingest + federated merge --verify ($n partition(s))"
    rm -rf "$work/partials"
    p=0
    while [ "$p" -lt "$n" ]; do
      "$build/tools/wearscope_live" --bundle "$work/trace" --shards 2 \
        --snapshot-every 1d --partition "$p/$n" \
        --partial-dir "$work/partials" >/dev/null
      p=$((p + 1))
    done
    "$build/tools/wearscope_merge" --dir "$work/partials" \
      --verify --bundle "$work/trace"
  done
  rm -rf "$work"
  echo "== OK"
  exit 0
fi

if [ "$trace_bench" -eq 1 ]; then
  echo "== build (columnar perf suite)"
  cmake --build "$build" -j "$jobs" --target perf_columnar
  echo "== v3 IO + sketch deltas (BENCH_columnar.json)"
  "$build/bench/perf_columnar" --emit-json="$root/BENCH_columnar.json"
  echo "== OK"
  exit 0
fi

echo "== build"
cmake --build "$build" -j "$jobs"

echo "== lint"
"$build/tools/wearscope_lint" --root "$root" --error-on-findings

echo "== test (incl. lint + chaos + sched labels)"
ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo "== interleaving mutation gate (seeded bug must be found + replay)"
"$build/tools/wearscope_sched" --scenario mutation --expect-failure \
  2>/dev/null

if [ "$full" -eq 1 ]; then
  echo "== chaos label, ring/engine, query parsing, TCP front end, fed feeds and trace readers under ASan+UBSan"
  cmake -B "$root/build-asan" -S "$root" -DWEARSCOPE_SANITIZE=ON >/dev/null
  cmake --build "$root/build-asan" -j "$jobs"
  ctest --test-dir "$root/build-asan" -L chaos --output-on-failure
  ctest --test-dir "$root/build-asan" \
    -R "LiveRing|LiveEngine|FuzzQuery|ServeQueryParse|LineServer|FedStream|BundleParallel|ColumnarIo|BinaryIo|FuzzBinary|FuzzChaosCorpus|TraceV2|FuzzV2|FuzzV3|CodecGolden|TraceStore" \
    --output-on-failure

  echo "== concurrency tests under TSan"
  cmake -B "$root/build-tsan" -S "$root" -DWEARSCOPE_SANITIZE=thread \
    >/dev/null
  cmake --build "$root/build-tsan" -j "$jobs"
  ctest --test-dir "$root/build-tsan" \
    -R "LiveRing|LiveEngine|TaskPool|ParPipeline|ContextIndex|TraceV2|TraceStore|BundleParallel|BundleTest|ColumnarIo|Columns|ColumnarKernels|TailOracle|ServeStress|ServeEquivalence|QueryEngine|SnapshotStore|LineServer|FedPartial|FedMerge|FedStream|FedSweep" \
    --output-on-failure

  echo "== deep interleaving walks (WEARSCOPE_SCHED_WALKS=${WEARSCOPE_SCHED_WALKS:-2000})"
  WEARSCOPE_SCHED_WALKS="${WEARSCOPE_SCHED_WALKS:-2000}" \
    ctest --test-dir "$build" -L sched --output-on-failure -j "$jobs"

  echo "== analysis thread sweep (BENCH_analysis.json)"
  "$build/bench/perf_analysis" --emit-json="$root/BENCH_analysis.json"
fi

echo "== OK"
