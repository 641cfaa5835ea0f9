#!/usr/bin/env bash
# Tier-1 gate: plain build + full test suite (three back-to-back passes
# under ctest -j, so a test that races another process on a shared file
# fails here rather than intermittently), then a ThreadSanitizer build
# running the concurrency-sensitive suites (SPSC ring, sharded engine, and
# the live-metrics race test), then an AddressSanitizer build running the
# memory-churn-heavy suites (robustness fuzz, overload shedding, fault
# injection, CSV parsing, crash recovery, torn-file fuzz, the refcounted
# match-DAG store and its lazy enumerator, the parser's nesting limits and
# the query-text fuzz), then a UBSan
# build running the arithmetic-heavy suites (evaluator/VM extremes, the
# bytecode differential fuzzer, rank math, snapshot/WAL decoding of
# corrupted bytes). Run from the repo root:
#
#   scripts/check.sh            # all stages
#   scripts/check.sh --plain    # plain stage only
#   scripts/check.sh --tsan     # TSan stage only
#   scripts/check.sh --asan     # ASan stage only
#   scripts/check.sh --ubsan    # UBSan stage only
#
# The sanitizer stages use their own build trees (build-tsan, build-asan,
# build-ubsan) so they never dirty the primary build.
set -euo pipefail

cd "$(dirname "$0")/.."

run_plain=1
run_tsan=1
run_asan=1
run_ubsan=1
case "${1:-}" in
  --plain) run_tsan=0; run_asan=0; run_ubsan=0 ;;
  --tsan) run_plain=0; run_asan=0; run_ubsan=0 ;;
  --asan) run_plain=0; run_tsan=0; run_ubsan=0 ;;
  --ubsan) run_plain=0; run_tsan=0; run_asan=0 ;;
  "") ;;
  *) echo "usage: $0 [--plain|--tsan|--asan|--ubsan]" >&2; exit 2 ;;
esac

if [[ $run_plain -eq 1 ]]; then
  echo "== plain build + full suite =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)"
  ctest --test-dir build --output-on-failure -j "$(nproc)" --repeat until-fail:3
fi

if [[ $run_tsan -eq 1 ]]; then
  echo "== TSan build + concurrency suites =="
  cmake -B build-tsan -S . -DCEPR_SANITIZE=thread -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target common_test integration_test
  ./build-tsan/tests/common_test --gtest_filter='SpscQueue*:ErrnoString*'
  # The sharded recovery tests exercise the quiesce barrier (Checkpoint
  # cuts while worker threads drain) — one shard count keeps the stage fast.
  ./build-tsan/tests/integration_test \
    --gtest_filter='Sharded*:ShardedMetricsRaceTest.*:ShardCounts/ShardedFault*:CowEquivalenceTest.HotPathCountersMatchSerialTotals:CowEquivalenceTest.SharedMatchDagMatchesPerRunPath:CowEquivalenceTest.PushAllReproducesPinnedDigests:Disorder*:ShardCounts/Disorder*:Engines/RecoveryTest.*/sharded2'
  # The network server is accept thread + session threads + checkpoint
  # timer all sharing one engine lock; the kill/restart and robustness
  # suites drive every cross-thread edge (subscribe/detach, timer cuts,
  # mid-write teardown).
  ./build-tsan/tests/integration_test \
    --gtest_filter='ServerTest.*:ServerRecoveryTest.*:ServerRobustnessTest.*'
fi

if [[ $run_asan -eq 1 ]]; then
  echo "== ASan build + robustness suites =="
  cmake -B build-asan -S . -DCEPR_SANITIZE=address -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-asan -j "$(nproc)" --target integration_test runtime_test \
    engine_test rank_test net_test lang_test
  # ServerRobustnessTest feeds the wire decoder torn frames and garbage —
  # attacker-controlled lengths and truncated bodies are ASan's home turf;
  # net_test fuzzes the framing layer directly over socketpairs.
  ./build-asan/tests/integration_test \
    --gtest_filter='Robustness*:Overload*:FaultInjection*:ShardedFault*:ShardCounts/ShardedFault*:CowEquivalence*:Disorder*:ShardCounts/Disorder*:*Recovery*:ServerTest.*:ServerRobustnessTest.*'
  ./build-asan/tests/net_test
  ./build-asan/tests/runtime_test \
    --gtest_filter='Csv*:ReorderBuffer*:Idempotence*:Snapshot*:TornFileFuzz*'
  # The shared match DAG is manually refcounted arena memory — exactly what
  # ASan exists to audit; the enumerator suite drives its free/reuse cycle.
  ./build-asan/tests/engine_test --gtest_filter='MatchDag*'
  ./build-asan/tests/rank_test --gtest_filter='Enumerator*'
  # Hostile query text: nesting at the parser's height limit and mutated
  # queries drive the deepest recursion any statement can reach — a stack
  # overflow there is exactly what ASan reports. (The deep-deploy server
  # case rides in ServerRobustnessTest.* above.)
  ./build-asan/tests/lang_test --gtest_filter='Parser*:QueryTextFuzz*'
fi

if [[ $run_ubsan -eq 1 ]]; then
  echo "== UBSan build + arithmetic suites =="
  cmake -B build-ubsan -S . -DCEPR_SANITIZE=undefined -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-ubsan -j "$(nproc)" --target expr_test rank_test integration_test runtime_test
  ./build-ubsan/tests/expr_test
  ./build-ubsan/tests/rank_test
  # SkipTillAnyForkHeavyWithShedding is ~15x the cost of the other five
  # combined under UBSan (fork-heavy matching, not arithmetic) and the plain
  # and ASan stages already run it; keep the UBSan stage focused.
  ./build-ubsan/tests/integration_test \
    --gtest_filter='CowEquivalenceTest.*:*Recovery*:-CowEquivalenceTest.SkipTillAnyForkHeavyWithShedding'
  # Torn-file fuzzing decodes attacker-controlled lengths/offsets — exactly
  # where unchecked size arithmetic would be UB.
  ./build-ubsan/tests/runtime_test \
    --gtest_filter='Idempotence*:Snapshot*:TornFileFuzz*'
fi

echo "check.sh: all stages passed"
