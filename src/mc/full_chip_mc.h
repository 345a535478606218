#pragma once
// Full-chip Monte-Carlo reference engine.
//
// Independent end-to-end validation of the analytical estimators: per trial,
// draw a D2D length shift, a spatially correlated WID length field over the
// placement grid (circulant embedding), look up every placed gate's leakage
// at its sampled length, and sum. Across trials this yields the empirical
// mean/sigma of total chip leakage, which the RG estimates must match.
//
// The trial loop is the throughput bound for every MC-backed validation
// (DESIGN.md "MC performance"). The field draw dominates a trial; after it,
// each gate's (cell, state) LeakageTable is evaluated at its site's sampled
// length and added, in gate order, to a compensated sum. The loop keeps:
//  * zero-allocation steady state — every per-trial buffer (field FFT
//    scratch, WID field, per-gate table ids) lives in a per-worker
//    McWorkspace that is warmed once and reused, so the steady-state loop
//    performs no heap allocations (asserted by tests/mc/test_mc_perf_path.cpp
//    with a counting operator new);
//  * cheap checkpoints — the periodic checkpoint path streams live worker
//    state through a buffer-reusing McCheckpointWriter instead of
//    deep-copying every slice each cadence.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "charlib/characterize.h"
#include "charlib/leakage_table.h"
#include "math/histogram.h"
#include "math/rng.h"
#include "math/stats.h"
#include "placement/placement.h"
#include "process/field_sampler.h"
#include "util/run_control.h"

namespace rgleak::mc {

struct FullChipMcOptions {
  std::size_t trials = 500;
  std::uint64_t seed = 777;
  /// Signal probability used to draw each gate's (fixed) input state.
  double signal_probability = 0.5;
  /// When true, gate input states are redrawn every trial (models workload
  /// variability in addition to process variability).
  bool resample_states_per_trial = false;
  std::size_t table_points = 129;
  /// Worker threads for run(). 1 = serial, 0 = hardware concurrency. Results
  /// are deterministic for a fixed (seed, threads) pair; different thread
  /// counts reorder the per-thread RNG streams and therefore produce
  /// different (equally valid) samples. Threaded runs support per-trial
  /// state resampling: workers draw states into thread-local tables.
  std::size_t threads = 1;
  /// Cooperative stop / deadline. Workers poll it once per trial (one relaxed
  /// atomic load when unarmed) and drain; run() then writes a final
  /// checkpoint (when checkpoint_path is set) and throws DeadlineExceeded.
  const util::RunControl* run = nullptr;
  /// Total trials between periodic checkpoints (split across workers);
  /// 0 disables periodic checkpoints. Checkpoint cadence never changes the
  /// result: worker state persists across rounds, so the sample stream is
  /// bit-identical whatever the cadence — or whether the run was interrupted
  /// and resumed — for a fixed (seed, threads).
  std::size_t checkpoint_every = 0;
  /// Where checkpoints are written (atomic temp-file + rename). Empty
  /// disables checkpointing entirely.
  std::string checkpoint_path;
  /// Resume from this checkpoint instead of starting fresh. The checkpoint's
  /// identity header must match (seed, threads, trials, resampling, table
  /// points, gate count), else ConfigError.
  std::string resume_path;
  /// Record engine metrics (mc.trials counter, checkpoint flush latency) into
  /// util::metrics::Registry. One relaxed fetch_add per trial when on;
  /// bench_full_chip_mc runs the armed/off pair and asserts the difference
  /// stays within the 2% observability budget. Off exists for that A/B
  /// baseline, not as a recommended configuration.
  bool metrics = true;
};

/// Relative chip mean and sigma bias within which an embedding counts as
/// faithful: about a fifth of one standard error of sigma pooled over 20k
/// trials.
inline constexpr double kEmbeddingTolerance = 2e-3;

/// The circulant embedding an engine draws its WID field on, and the exact
/// relative error that the covariance it realizes
/// (process::GridFieldSampler::realized_covariance) puts on the engine's own
/// design: E_emb[total] / E[total] - 1 and sigma_emb[total] / sigma[total] - 1,
/// both from the exact estimator (core::ExactEstimator), under the realized
/// and under the target length covariance.
struct McEmbedding {
  std::size_t padded_rows = 0;
  std::size_t padded_cols = 0;
  double mean_bias = 0.0;
  double sigma_bias = 0.0;
};

struct FullChipMcResult {
  double mean_na = 0.0;
  double sigma_na = 0.0;
  std::size_t trials = 0;
  /// Empirical percentiles of the total-leakage distribution.
  double p50_na = 0.0;
  double p90_na = 0.0;
  double p99_na = 0.0;
  /// The embedding the field was drawn on, with its exact biases.
  McEmbedding embedding;
};

/// Per-worker trial scratch. All buffers grow to their steady-state size on
/// the first trial and are reused afterwards; nothing in here allocates in
/// steady state.
struct McWorkspace {
  process::FieldWorkspace field;        ///< FFT buffers for sample_into
  std::vector<double> wid;              ///< WID field draw, one value per site
  std::vector<std::uint32_t> table_id;  ///< per gate: current input-state table
};

class FullChipMonteCarlo {
 public:
  /// Chooses the field embedding (choose_embedding, on options.threads
  /// threads) and builds it.
  FullChipMonteCarlo(const placement::Placement& placement,
                     const charlib::CharacterizedLibrary& chars, FullChipMcOptions options = {});

  FullChipMcResult run();

  /// The embedding an engine on these inputs draws on. The default is the
  /// minimal one (process::GridFieldSampler::padded_dim per axis); it is kept
  /// when both its exact biases, for this placed design, cell mix and
  /// signal probability in the library's correlation mode, are within
  /// kEmbeddingTolerance. Otherwise the power-of-two ladder from
  /// next_pow2(n + 1) up to GridFieldSampler::max_padded_dim per axis is
  /// walked, and the first rung within the tolerance is taken, or the
  /// least-biased rung when none is. No rung exceeds max_padded_dim. The
  /// exact estimates run on `threads` threads (0 = hardware concurrency).
  static McEmbedding choose_embedding(const placement::Placement& placement,
                                      const charlib::CharacterizedLibrary& chars,
                                      double signal_probability, std::size_t threads);

  /// The exact biases of drawing these inputs on a padded_rows x
  /// padded_cols embedding (powers of two no smaller than the grid), as
  /// choose_embedding measures each rung.
  static McEmbedding embedding_at(const placement::Placement& placement,
                                  const charlib::CharacterizedLibrary& chars,
                                  double signal_probability, std::size_t threads,
                                  std::size_t padded_rows, std::size_t padded_cols);

  /// Bytes run() reserves against the process MemoryBudget with `threads`
  /// workers on `embedding`: the shared embedding once
  /// (core::CostModel::mc_embedding_bytes), each worker's
  /// core::CostModel::mc_worker_bytes, and one double per trial. Batch
  /// admission prices an MC run with it before building the engine.
  static std::uint64_t arena_bytes(const placement::Placement& placement,
                                   const McEmbedding& embedding, std::size_t trials,
                                   std::size_t threads);

  /// Total-leakage sample for one process draw (exposed for tests); uses the
  /// engine's own workspace — allocation-free once warm.
  double sample_total_na(math::Rng& rng);

 private:
  /// Per-worker run() state: own RNG stream, field-sampler copy (it shares
  /// the engine's embedding read-only and owns the spare field of each FFT,
  /// which must live as long as the stream), workspace, and the disjoint
  /// slice of trials it fills. Each worker is a separate heap block, so hot
  /// per-trial writes (slice push_back, workspace fills) never share a cache
  /// line across workers.
  struct Worker {
    math::Rng rng;
    process::GridFieldSampler field;
    McWorkspace ws;
    std::vector<double> samples;

    Worker(math::Rng r, const process::GridFieldSampler& f) : rng(r), field(f) {}
  };

  /// choose_embedding's answer and the sampler it built for it.
  struct Chosen {
    McEmbedding embedding;
    process::GridFieldSampler field;
  };
  class EmbeddingCheck;
  static Chosen choose(const placement::Placement& placement,
                       const charlib::CharacterizedLibrary& chars, double signal_probability,
                       std::size_t threads);
  FullChipMonteCarlo(const placement::Placement& placement,
                     const charlib::CharacterizedLibrary& chars, FullChipMcOptions options,
                     Chosen chosen);

  const placement::Placement* placement_;
  const charlib::CharacterizedLibrary* chars_;
  FullChipMcOptions options_;
  McEmbedding embedding_;
  process::GridFieldSampler field_;
  math::Rng rng_;
  std::vector<std::uint32_t> table_id_;  // per gate, indexes tables_
  std::vector<std::unique_ptr<charlib::LeakageTable>> tables_;  // per (cell,state)
  std::unordered_map<std::uint64_t, std::uint32_t> table_index_;
  /// cell index -> (state -> table id), filled by build_all_state_tables so
  /// the per-trial state redraw resolves table ids with two array loads
  /// instead of a hash lookup per gate.
  std::vector<std::vector<std::uint32_t>> cell_state_ids_;
  McWorkspace ws_;  // workspace of the sample_total_na test path

  /// run() with the thread count resolved (0 already mapped to hardware
  /// concurrency) and bad_alloc translation applied by the caller.
  FullChipMcResult run_with_threads(std::size_t threads);
  std::uint32_t table_for(std::size_t cell_index, std::uint32_t state);
  void draw_states(math::Rng& rng);
  /// Eagerly build the lookup tables for every input state of every cell used
  /// by the netlist, so threaded workers can resample states without touching
  /// the shared cache.
  void build_all_state_tables();
  /// Thread-safe state draw into a caller-owned per-gate table-id vector; the
  /// tables must have been prebuilt. Mirrors draw_states' RNG consumption.
  void draw_states_into(math::Rng& rng, std::vector<std::uint32_t>& table_id) const;
  /// One trial: D2D + WID field draw, then the compensated (Neumaier) sum of
  /// every gate's table evaluated at its site's length.
  double run_trial(process::GridFieldSampler& field, math::Rng& rng, McWorkspace& ws) const;
  /// Loads `path`, verifies its identity header against this run's setup
  /// (ConfigError on mismatch), and installs the per-worker state.
  void restore(const std::string& path, std::size_t threads,
               std::vector<std::unique_ptr<Worker>>& workers) const;
};

}  // namespace rgleak::mc
