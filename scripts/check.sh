#!/usr/bin/env bash
# Full local check: configure, build (warnings are errors), test, run every
# benchmark harness once, then rebuild and run the whole test suite under
# ASan/UBSan and the threaded tests under TSan. Usage: scripts/check.sh [build-dir]
set -euo pipefail
BUILD="${1:-build-check}"
cmake -B "$BUILD" -G Ninja -DDLAJA_WERROR=ON
cmake --build "$BUILD"
ctest --test-dir "$BUILD" --output-on-failure
for bench in "$BUILD"/bench/bench_*; do
  [ -x "$bench" ] || continue
  echo "==== $bench"
  "$bench"
done

# The whole ctest suite under both sanitizer presets: the event core does
# placement-new/launder tricks, the flow network and the broker recycle
# generation-tagged slots whose handlers can re-enter them, the lifecycle
# cancels in-flight lease events, and the federated wrapper hands each
# instance a masked view of the shared fleet (raw WorkerNode pointers nulled
# outside the partition) — lifetime paths only the sanitizers can vouch
# for, and not confined to any fixed subset of the tests. The asan preset
# bundles address+undefined; the ubsan preset runs undefined alone (no
# shadow memory), which changes layout enough to surface different misuses.
# The preset trees use the default generator, so build them in parallel
# explicitly: the whole instrumented tree is ~10 min per preset at -j4.
JOBS="$(nproc 2>/dev/null || echo 2)"
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
for PRESET in asan ubsan; do
  echo "==== sanitizer pass ($PRESET)"
  cmake --preset "$PRESET"
  cmake --build --preset "$PRESET" --parallel "$JOBS"
  ctest --test-dir "build-$PRESET" --output-on-failure --parallel "$JOBS"
  # A short fuzz sweep under the sanitizer: random scenarios reach engine
  # paths (fault x shard x open-arrival combinations) no fixed test pins.
  # Repro files from a failure land inside the build tree, not examples/.
  "build-$PRESET/tools/dlaja_fuzz" --seed 20240808 --count 10 \
    --out-dir "build-$PRESET"
done

# The sharded kernel runs shards on real threads; TSan is the only sanitizer
# that can vouch for the window-barrier protocol (shard sims run in parallel,
# cross-shard traffic parks in per-shard outboxes drained at barriers).
# test_thread_pool exercises the pool itself, test_shard the full engine,
# test_scale the fan-out policies (the cached goldens and the crashing
# probe:k golden run under --shards 4),
# test_telemetry the per-shard samplers confirmed at window barriers.
# test_federation rides along for its 4-shard federated golden: N scheduler
# instances sharing one broker while shard sims run on real threads.
TSAN_TESTS=(test_thread_pool test_shard test_scale test_telemetry test_federation)
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
echo "==== sanitizer pass (tsan)"
cmake --preset tsan
cmake --build --preset tsan --parallel "$JOBS" --target "${TSAN_TESTS[@]}"
for t in "${TSAN_TESTS[@]}"; do
  "build-tsan/tests/$t"
done
echo "ALL CHECKS PASSED"
