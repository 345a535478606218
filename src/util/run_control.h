#pragma once
// Deadline-aware run control: cooperative cancellation for long-running work.
//
// A RunControl is shared between a driver (which arms a deadline, or requests
// a stop from a signal handler or another thread) and the compute kernels
// (which poll it between chunks of work). Design constraints, in order:
//
//  * unarmed cost — a poll on a RunControl with no deadline and no stop
//    request is ONE relaxed atomic load (same budget discipline as the
//    failpoint registry), so run control can stay threaded through every hot
//    path permanently;
//  * signal safety — request_stop() touches only lock-free atomics, so a
//    SIGINT handler may call it directly;
//  * latching — once stopped (explicitly or by deadline expiry) the state
//    never un-stops, and the first reason wins; kernels several layers deep
//    all observe the same verdict.
//
// Kernels poll at chunk granularity (a tile of the exact pairwise sum, one
// batch of FFT rows or columns, one MC trial), so cancellation latency is
// bounded by one chunk plus whatever delay a task injects (see the failpoint
// tests).

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/error.h"

namespace rgleak::util {

/// Why a run was stopped.
enum class StopReason : std::uint8_t {
  kNone = 0,       ///< still running
  kCancelled = 1,  ///< request_stop(): SIGINT, another thread, pool stop()
  kDeadline = 2,   ///< the armed deadline passed
  kStalled = 3,    ///< a watchdog saw no progress heartbeat for too long
};

class RunControl {
 public:
  using Clock = std::chrono::steady_clock;

  RunControl() = default;
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  /// Request a cooperative stop. Async-signal-safe and thread-safe; the first
  /// recorded reason wins. `reason` defaults to explicit cancellation.
  void request_stop(StopReason reason = StopReason::kCancelled);

  /// Arm a wall-clock deadline `budget_s` seconds from now. A non-positive
  /// budget stops the run immediately (reason kDeadline).
  void arm_budget(double budget_s);
  /// Arm an absolute deadline.
  void arm_deadline(Clock::time_point when);

  /// Link a parent control: once the parent stops, polls on this control stop
  /// too (the parent's reason is latched here). This is how a nested control
  /// — a budgeted estimator's internal deadline, a batch job's watchdog —
  /// composes with an outer stop source (SIGINT, batch shutdown) without
  /// merging their deadlines. Call before sharing this control across
  /// threads; the parent must outlive this control.
  void set_parent(const RunControl* parent);

  /// True once a deadline has been armed or a stop requested (i.e. polls can
  /// no longer take the single-load fast path).
  bool armed() const { return state_.load(std::memory_order_relaxed) != kIdle; }

  /// Should the work stop? Fast path (nothing armed): one relaxed atomic
  /// load. With a deadline armed this also reads the clock and latches
  /// kDeadline on expiry.
  bool should_stop() const;

  /// should_stop() without the heartbeat: evaluates deadline/parent and
  /// latches exactly the same, but registers no progress. For observers that
  /// poll on a worker's behalf — the subprocess supervisor watching a
  /// sandboxed child — where beating would mask the child's own stall from
  /// the watchdog sampling this control.
  bool stop_pending() const;

  /// Reason the run stopped (kNone while still running). Does NOT beat: a
  /// watchdog may read it without registering as the worker's progress.
  StopReason reason() const;

  /// Record one unit of cooperative progress (one trial, one tile, one pool
  /// tick). poll() and should_stop() beat automatically, so any kernel that
  /// already polls publishes a heartbeat for free; a wedged kernel that stops
  /// polling goes flat — which is exactly the signal a stall watchdog needs.
  /// One relaxed fetch_add; safe from any thread.
  void beat() const {
    beats_.fetch_add(1, std::memory_order_relaxed);
    if (auto* sink = beat_sink_.load(std::memory_order_relaxed); sink != nullptr)
      sink->fetch_add(1, std::memory_order_relaxed);
  }

  /// Monotonic heartbeat counter since construction. Does NOT beat. When a
  /// source was adopted (adopt_beats_from) its count is folded in, so a stall
  /// watchdog sampling this control sees progress published from the other
  /// side of a process boundary.
  std::uint64_t beats() const {
    std::uint64_t n = beats_.load(std::memory_order_relaxed);
    if (const auto* src = beat_source_.load(std::memory_order_acquire); src != nullptr)
      n += src->load(std::memory_order_relaxed);
    return n;
  }

  /// Mirror every beat() into `sink` as well (a cross-process shared-memory
  /// counter: a sandboxed job child mirrors its heartbeats into a page the
  /// parent supervisor maps). `sink` must outlive the control. Null detaches.
  void mirror_beats_to(std::atomic<std::uint64_t>* sink) {
    beat_sink_.store(sink, std::memory_order_release);
  }

  /// Fold an external heartbeat counter into beats() (the parent supervisor
  /// adopts the shared page its child mirrors into, so the stall monitor
  /// works unchanged across the process boundary). `source` must stay mapped
  /// until detach_beat_source().
  void adopt_beats_from(const std::atomic<std::uint64_t>* source) {
    beat_source_.store(source, std::memory_order_release);
  }

  /// Folds the adopted counter's final value into beats() and detaches it.
  /// Must run before the adopted memory is unmapped; concurrent beats()
  /// readers (the stall monitor) stay safe throughout — they see at worst a
  /// momentary double count between the fold and the detach, never a read of
  /// freed memory.
  void detach_beat_source() {
    if (const auto* src = beat_source_.load(std::memory_order_acquire); src != nullptr) {
      beats_.fetch_add(src->load(std::memory_order_relaxed), std::memory_order_relaxed);
      beat_source_.store(nullptr, std::memory_order_release);
    }
  }

  /// Seconds left before the armed deadline; +infinity when no deadline is
  /// armed, clamped at 0 once expired.
  double remaining_s() const;

  /// Poll-and-throw: raises DeadlineExceeded (naming `site` and the reason)
  /// when the run should stop. Kernels call this between chunks.
  void poll(const char* site) const;

  /// Builds the DeadlineExceeded a stopped run should raise; poll() and
  /// drivers that need to checkpoint before throwing both use this.
  DeadlineExceeded make_error(const char* site) const;

 private:
  // state_ bit set: kStopBit latched stop, kDeadlineBit deadline armed,
  // kParentBit parent linked (polls must consult it).
  static constexpr int kIdle = 0;
  static constexpr int kStopBit = 1;
  static constexpr int kDeadlineBit = 2;
  static constexpr int kParentBit = 4;

  mutable std::atomic<int> state_{kIdle};
  mutable std::atomic<std::uint8_t> reason_{0};  // StopReason, first writer wins
  mutable std::atomic<std::uint64_t> beats_{0};  // progress heartbeat counter
  // Written before kDeadlineBit is released, read after it is acquired.
  std::atomic<Clock::time_point::rep> deadline_ticks_{0};
  const RunControl* parent_ = nullptr;  // set before sharing, then read-only
  // Heartbeat bridging across a process boundary. Atomic pointers: the
  // supervisor attaches/detaches the shared page while the stall monitor
  // samples beats() concurrently.
  mutable std::atomic<std::atomic<std::uint64_t>*> beat_sink_{nullptr};
  std::atomic<const std::atomic<std::uint64_t>*> beat_source_{nullptr};

  void latch(StopReason reason) const;
};

}  // namespace rgleak::util
