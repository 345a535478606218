#!/usr/bin/env bash
# ThreadSanitizer pass over the concurrency-sensitive tests: the thread pool,
# the parallel/concurrent exact-estimator paths, threaded Monte Carlo, and the
# batch service layer (MPMC job queue, concurrent batch soak).
# Part of the tier-1 verify flow (see ROADMAP.md). Uses its own build tree so
# the regular build stays uninstrumented.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-tsan
cmake -B "$BUILD" -S . -DRGLEAK_SANITIZE=thread >/dev/null
cmake --build "$BUILD" --target util_tests core_tests mc_tests service_tests robustness_tests -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
# *Metrics*: the lock-free instruments (relaxed counters/histograms, the
# registry mutex, snapshot readers racing recorders) under real threads.
"$BUILD"/tests/util_tests --gtest_filter='ThreadPool.*:*Metrics*'
"$BUILD"/tests/core_tests --gtest_filter='*Concurrent*:*ThreadCounts*:*FftPathMatchesDirectPath*'
# *Threaded*: threaded MC runs (statistics and determinism, fixed and
# resampled states) and the threaded checkpointed run race the per-worker
# workspaces and the background checkpoint flusher.
"$BUILD"/tests/mc_tests --gtest_filter='*Threaded*'
# The service layer's shared-state hot spots: blocked producers/consumers on
# the bounded queue, the shared retry budget, workers appending to one
# journal while the 200-job soak injects faults, and the stall watchdog's
# monitor thread sampling worker heartbeats while slots publish and clear.
"$BUILD"/tests/service_tests --gtest_filter='*Concurrent*:*Stall*'
# Fault injection under TSan: a worker throwing mid-job must not race the
# pool's rendezvous or leave it unusable. *Threaded* adds the threaded MC
# worker rounds (per-worker workspaces + the background checkpoint flusher)
# driven through the robustness suite's interrupt/resume scenarios.
"$BUILD"/tests/robustness_tests --gtest_filter='*Concurrent*:*Threaded*'
# Process isolation: the fork-per-job supervisor (shared-memory heartbeat
# page, concurrent stall monitor, supervisor reap loop) and the crash-matrix
# soak. TSan kills forked children of a multithreaded parent by default;
# die_after_fork=0 is safe here because sandboxed children are single-threaded
# by construction (fork only, no thread creation before _exit). handle_segv=0
# handle_abort=0: injected child crashes must die on the real signal so the
# supervisor classifies a SIGSEGV/SIGABRT wait status, not a sanitizer exit.
TSAN_OPTIONS="die_after_fork=0 handle_segv=0 handle_abort=0 $TSAN_OPTIONS" \
  "$BUILD"/tests/service_tests --gtest_filter='*Isolate*'
TSAN_OPTIONS="die_after_fork=0 handle_segv=0 handle_abort=0 $TSAN_OPTIONS" \
  "$BUILD"/tests/robustness_tests --gtest_filter='*Isolate*'
echo "tsan_check: OK"
