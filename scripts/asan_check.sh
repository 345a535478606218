#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer pass over the failure-path
# tests: fault injection, the
# malformed-input corpora (netlist + checkpoint), the exception-unwinding pool
# paths, the batch service layer (ctest label: robustness), and the `rgleak`
# binary itself, driven black-box by cli_tests (flag reading, usage and typed
# error exits, the batch front end). Exceptions flying out of worker threads
# and aborted parses are exactly where leaks and use-after-frees hide; ASan
# proves the error paths release what they took; UBSan (no recovery: a
# finding aborts the process) proves they stay defined, including the
# deliberate crashes of the process-isolation tests. Uses its own build tree
# so the regular build stays uninstrumented.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-asan
cmake -B "$BUILD" -S . -DRGLEAK_SANITIZE=address,undefined >/dev/null
cmake --build "$BUILD" --target util_tests service_tests robustness_tests rgleak cli_tests \
  -j "$(nproc)"

export ASAN_OPTIONS="detect_leaks=1 halt_on_error=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"
"$BUILD"/tests/util_tests --gtest_filter='ThreadPool.*:Failpoint.*:ErrorTaxonomy.*:Backoff.*:FakeClock.*'
# Everything labelled robustness in ctest: the service suite and the fault
# injection / corpus / soak suite. handle_segv=0/handle_abort=0: the process
# isolation tests deliberately segfault/abort sandboxed children, and those
# must die on the real signal (so the supervisor classifies them) instead of
# being turned into an ASan report.
(cd "$BUILD" && \
  ASAN_OPTIONS="handle_segv=0 handle_abort=0 $ASAN_OPTIONS" \
  ctest -L robustness --output-on-failure)
# The CLI: cli_tests runs the ASan-built rgleak of this tree, which inherits
# ASAN_OPTIONS, so a leak or bad access on any exit path fails its exit code.
"$BUILD"/tests/cli_tests
echo "asan_check: OK"
