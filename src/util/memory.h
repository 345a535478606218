#pragma once
// Process-wide memory budget: tracked reservations for the big arenas.
//
// rgleak's peak memory is dominated by a handful of arenas — the exact
// estimators' transform grid and offset tables, and the per-worker MC
// sampler copies and workspaces. Rather than instrument every allocation,
// those arenas *charge* their footprint against a process-wide MemoryBudget
// before allocating and release it when they die. The budget is the memory
// analogue of RunControl's time budget:
//
//  * a limit of 0 means unlimited — charging is then pure bookkeeping
//    (reserved/peak telemetry for bench records);
//  * with a limit set, a reservation that would overshoot throws
//    ResourceError naming the site, the requested bytes, and the headroom,
//    so one oversized job fails typed instead of OOM-killing the process;
//  * all counters are relaxed atomics — charging is cheap enough to keep in
//    production paths permanently.
//
// Memory admission (the ladder walk in core/leakage_estimator.h, MC worker
// halving in service::JobRunner) prices a job with the same arena formulas
// the engines charge (core/cost_model.h), so a job admitted alone never
// reaches a throwing reservation; the reservation is the backstop when
// concurrent jobs together overshoot the limit, and std::bad_alloc
// translation (see the `alloc` failpoint action) is the backstop below that.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace rgleak::util {

/// Tracked-allocation accountant. Thread-safe; usually used through the
/// process() singleton, but tests construct private instances freely.
class MemoryBudget {
 public:
  MemoryBudget() = default;
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// The process-wide budget every arena charges against.
  static MemoryBudget& process();

  /// Set the budget limit in bytes; 0 = unlimited (default). Does not evict
  /// existing reservations: lowering the limit below reserved() only affects
  /// future reserve() calls.
  void set_limit(std::uint64_t bytes) { limit_.store(bytes, std::memory_order_relaxed); }
  std::uint64_t limit() const { return limit_.load(std::memory_order_relaxed); }

  /// Charge `bytes` against the budget. Throws ResourceError naming `site`
  /// when the charge would push reserved() past a non-zero limit; on success
  /// the caller owns the charge and must release() it (or hold it in a
  /// MemoryReservation).
  void reserve(std::uint64_t bytes, const char* site);

  /// Like reserve() but returns false instead of throwing.
  bool try_reserve(std::uint64_t bytes, const char* site);

  /// Return a previous charge. Releasing more than reserved clamps to 0
  /// (and is a caller bug, but must not wrap the gauge).
  void release(std::uint64_t bytes);

  /// Currently charged bytes.
  std::uint64_t reserved() const { return reserved_.load(std::memory_order_relaxed); }

  /// High-water mark of reserved() since construction or the last
  /// reset_peak(). Feeds bench records.
  std::uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  void reset_peak() { peak_.store(reserved(), std::memory_order_relaxed); }
  /// Raises peak() to `bytes` when it is lower: the batch supervisor folds a
  /// sandboxed child's peak, charged to the child's own budget, into its own.
  void raise_peak(std::uint64_t bytes);

  /// Bytes still available under the limit (UINT64_MAX when unlimited).
  std::uint64_t headroom() const;

 private:
  std::atomic<std::uint64_t> limit_{0};
  std::atomic<std::uint64_t> reserved_{0};
  std::atomic<std::uint64_t> peak_{0};
};

/// RAII charge against a MemoryBudget. Movable; copying re-reserves the same
/// byte count (and may therefore throw) — per-worker clones each carry their
/// own charge.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  /// Charges `bytes` against `budget` (the process budget by default);
  /// throws ResourceError when it does not fit.
  MemoryReservation(std::uint64_t bytes, const char* site, MemoryBudget* budget = nullptr);
  ~MemoryReservation() { release(); }

  MemoryReservation(const MemoryReservation& other);
  MemoryReservation& operator=(const MemoryReservation& other);
  MemoryReservation(MemoryReservation&& other) noexcept;
  MemoryReservation& operator=(MemoryReservation&& other) noexcept;

  /// Drop the charge early (idempotent).
  void release();

  std::uint64_t bytes() const { return bytes_; }

 private:
  MemoryBudget* budget_ = nullptr;
  std::uint64_t bytes_ = 0;
  std::string site_;
};

/// Best-effort detection of this process's memory ceiling: the minimum of the
/// cgroup v2 `memory.max`, cgroup v1 `memory.limit_in_bytes`, and
/// `RLIMIT_AS` limits that are present and finite. Returns 0 when none is
/// set (unlimited). Used by the CLI's `--mem-budget auto` default.
std::uint64_t detect_memory_limit();

/// Parse a human memory size: plain bytes ("1048576") or a k/m/g suffixed
/// value ("512m", "2g", "1024K"; powers of 1024). Throws ConfigError on
/// anything else (including negative, overflow, and trailing junk).
std::uint64_t parse_memory_size(const std::string& text);

}  // namespace rgleak::util
