#include "mc/full_chip_mc.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "core/cost_model.h"
#include "core/estimators.h"
#include "mc/checkpoint.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace rgleak::mc {

namespace {

/// Neumaier-compensated accumulator: the per-trial totals sum thousands of
/// leakage values spanning orders of magnitude; compensation keeps each total
/// within ~1 ULP of the true sum whatever the gate order.
struct CompensatedSum {
  double sum = 0.0;
  double comp = 0.0;

  void add(double v) {
    const double t = sum + v;
    if (std::abs(sum) >= std::abs(v))
      comp += (sum - t) + v;
    else
      comp += (v - t) + sum;
    sum = t;
  }
  double value() const { return sum + comp; }
};

/// Background checkpoint publisher. Serializing a checkpoint image takes the
/// trial loop well under a millisecond, but publishing it (temp-file write +
/// rename) can stall for hundreds of milliseconds when the filesystem commits
/// its journal. Periodic checkpoints therefore hand the finished image to
/// this single writer thread and keep computing; if a new image arrives while
/// the previous one is still being written, the unpublished one is dropped
/// (newest wins — every image is a complete recovery point, so skipping a
/// stale one only ages the recovery point by one cadence). Final checkpoints
/// (deadline/stop, end of run) call flush() to guarantee durability before
/// run() returns or surfaces the interruption; flush() and publish() also
/// rethrow any write failure from the background thread, so a dead disk
/// surfaces within one cadence instead of being swallowed.
class CheckpointFlusher {
 public:
  explicit CheckpointFlusher(std::string path) : path_(std::move(path)) {}

  ~CheckpointFlusher() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    cv_.notify_all();
    if (writer_.joinable()) writer_.join();
    // A pending error here was already missed by every flush(); destruction
    // happens on exception paths where a second throw is not an option.
  }

  /// Queues `image` for publication and returns immediately. Rethrows a
  /// failure from a previous background write.
  void publish(const std::string& image) {
    std::unique_lock<std::mutex> lock(m_);
    rethrow_locked();
    pending_.assign(image);  // reuses capacity after the first cadence
    has_pending_ = true;
    if (!writer_.joinable()) writer_ = std::thread([this] { loop(); });
    lock.unlock();
    cv_.notify_all();
  }

  /// Blocks until every queued image is durably published; rethrows any
  /// background write failure.
  void flush() {
    std::unique_lock<std::mutex> lock(m_);
    done_cv_.wait(lock, [&] { return (!has_pending_ && !writing_) || error_; });
    rethrow_locked();
  }

 private:
  void rethrow_locked() {
    if (error_) {
      std::exception_ptr e = std::exchange(error_, nullptr);
      std::rethrow_exception(e);
    }
  }

  void loop() {
    std::string image;
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
      cv_.wait(lock, [&] { return has_pending_ || stop_; });
      if (!has_pending_) return;  // stop requested with nothing queued
      image.swap(pending_);
      has_pending_ = false;
      writing_ = true;
      lock.unlock();
      std::exception_ptr err;
      const auto flush_t0 = std::chrono::steady_clock::now();
      try {
        util::atomic_write_file(path_, [&](std::ostream& os) {
          os.write(image.data(), static_cast<std::streamsize>(image.size()));
        });
      } catch (...) {
        err = std::current_exception();
      }
      flush_ms_.observe(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - flush_t0)
                            .count());
      lock.lock();
      writing_ = false;
      if (err && !error_) error_ = err;
      done_cv_.notify_all();
      if (stop_ && !has_pending_) return;
    }
  }

  std::string path_;
  std::thread writer_;
  std::mutex m_;
  std::condition_variable cv_;       // signals the writer: work or stop
  std::condition_variable done_cv_;  // signals flushers: idle or failed
  std::string pending_;
  bool has_pending_ = false;
  bool writing_ = false;
  bool stop_ = false;
  std::exception_ptr error_;
  // Publish-to-durable latency of the background write, recorded per cadence
  // (never on the trial path).
  util::metrics::Histogram& flush_ms_ =
      util::metrics::Registry::instance().histogram("mc.checkpoint.flush_ms");
};

/// got / want - 1, the relative error of an exact statistic.
double relative_error(double got, double want) {
  if (want != 0.0) return got / want - 1.0;
  return got == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
}

}  // namespace

/// The exact statistics of one placed design under the length covariance an
/// embedding realizes, against those under the target covariance: both from
/// the exact FFT estimate, in the library's correlation mode.
class FullChipMonteCarlo::EmbeddingCheck {
 public:
  EmbeddingCheck(const placement::Placement& placement,
                 const charlib::CharacterizedLibrary& chars, double signal_probability,
                 std::size_t threads)
      : placement_(placement),
        chars_(chars),
        signal_probability_(signal_probability),
        mode_(core::correlation_mode_for(chars)) {
    options_.method = core::ExactMethod::kFft;
    options_.threads = threads;
    target_ = core::ExactEstimator(chars, signal_probability, mode_).estimate(placement, options_);
  }

  /// Builds the padded_rows x padded_cols embedding and measures its biases.
  /// The D2D shift is drawn exactly, so the length field's variance under
  /// the embedding is var_d2d + C_emb(0), and its correlation at an offset
  /// (var_d2d + C_emb(offset)) / that.
  Chosen build(std::size_t padded_rows, std::size_t padded_cols) const {
    const placement::Floorplan& fp = placement_.floorplan();
    const process::ProcessVariation& pv = chars_.process();
    process::GridFieldSampler field(fp.rows, fp.cols, fp.site_w_nm, fp.site_h_nm,
                                    pv.wid_correlation(), pv.length().sigma_wid_nm,
                                    pv.anisotropy(), padded_rows, padded_cols);
    const std::vector<double>& cov = field.realized_covariance();
    const double var_d2d = pv.length().sigma_d2d_nm * pv.length().sigma_d2d_nm;
    const double var_l = var_d2d + cov[0];
    std::vector<double> rho(cov.size());
    for (std::size_t i = 0; i < cov.size(); ++i) rho[i] = (var_d2d + cov[i]) / var_l;
    const charlib::CharacterizedLibrary realized = chars_.with_wid_sigma(std::sqrt(cov[0]));
    const core::LeakageEstimate got = core::ExactEstimator(realized, signal_probability_, mode_)
                                          .estimate(placement_, rho, options_);
    return {{padded_rows, padded_cols, relative_error(got.mean_na, target_.mean_na),
             relative_error(got.sigma_na, target_.sigma_na)},
            std::move(field)};
  }

 private:
  const placement::Placement& placement_;
  const charlib::CharacterizedLibrary& chars_;
  double signal_probability_;
  core::CorrelationMode mode_;
  core::ExactOptions options_;
  core::LeakageEstimate target_;
};

FullChipMonteCarlo::Chosen FullChipMonteCarlo::choose(const placement::Placement& placement,
                                                      const charlib::CharacterizedLibrary& chars,
                                                      double signal_probability,
                                                      std::size_t threads) {
  static util::metrics::Histogram& choose_ms =
      util::metrics::Registry::instance().histogram("mc.embedding_ms");
  const util::metrics::ScopedTimerMs timer(choose_ms);
  const EmbeddingCheck check(placement, chars, signal_probability, threads);
  const auto worst = [](const McEmbedding& e) {
    return std::max(std::abs(e.mean_bias), std::abs(e.sigma_bias));
  };
  // Keeps the rung when it is within the tolerance (and says so) or is the
  // least-biased so far. A rung whose embedding is too far from positive
  // semi-definite to build is skipped.
  std::optional<Chosen> best;
  const auto try_rung = [&](std::size_t padded_rows, std::size_t padded_cols) {
    try {
      Chosen rung = check.build(padded_rows, padded_cols);
      const bool within = worst(rung.embedding) <= kEmbeddingTolerance;
      if (within || !best || worst(rung.embedding) < worst(best->embedding))
        best.emplace(std::move(rung));
      return within;
    } catch (const NumericalError&) {
      return false;
    }
  };

  using process::GridFieldSampler;
  const placement::Floorplan& fp = placement.floorplan();
  const process::CorrelationAnisotropy& axes = chars.process().anisotropy();
  const double range = chars.process().wid_correlation().range_nm();
  const std::size_t rows0 =
      GridFieldSampler::padded_dim(fp.rows, fp.site_h_nm, axes.scale_y, range);
  const std::size_t cols0 =
      GridFieldSampler::padded_dim(fp.cols, fp.site_w_nm, axes.scale_x, range);
  if (try_rung(rows0, cols0)) return std::move(*best);
  const std::size_t max_rows =
      GridFieldSampler::max_padded_dim(fp.rows, fp.site_h_nm, axes.scale_y, range);
  const std::size_t max_cols =
      GridFieldSampler::max_padded_dim(fp.cols, fp.site_w_nm, axes.scale_x, range);
  for (std::size_t r = math::next_pow2(fp.rows + 1), c = math::next_pow2(fp.cols + 1);;
       r *= 2, c *= 2) {
    const std::size_t rows = std::min(r, max_rows), cols = std::min(c, max_cols);
    if ((rows != rows0 || cols != cols0) && try_rung(rows, cols)) break;
    if (rows == max_rows && cols == max_cols) break;
  }
  // No rung built: the largest one's error stands.
  if (!best) best.emplace(check.build(max_rows, max_cols));
  return std::move(*best);
}

McEmbedding FullChipMonteCarlo::embedding_at(const placement::Placement& placement,
                                             const charlib::CharacterizedLibrary& chars,
                                             double signal_probability, std::size_t threads,
                                             std::size_t padded_rows, std::size_t padded_cols) {
  return EmbeddingCheck(placement, chars, signal_probability, threads)
      .build(padded_rows, padded_cols)
      .embedding;
}

McEmbedding FullChipMonteCarlo::choose_embedding(const placement::Placement& placement,
                                                 const charlib::CharacterizedLibrary& chars,
                                                 double signal_probability, std::size_t threads) {
  return choose(placement, chars, signal_probability, threads).embedding;
}

FullChipMonteCarlo::FullChipMonteCarlo(const placement::Placement& placement,
                                       const charlib::CharacterizedLibrary& chars,
                                       FullChipMcOptions options)
    : FullChipMonteCarlo(placement, chars, options,
                         choose(placement, chars, options.signal_probability, options.threads)) {}

FullChipMonteCarlo::FullChipMonteCarlo(const placement::Placement& placement,
                                       const charlib::CharacterizedLibrary& chars,
                                       FullChipMcOptions options, Chosen chosen)
    : placement_(&placement),
      chars_(&chars),
      options_(options),
      embedding_(chosen.embedding),
      field_(std::move(chosen.field)),
      rng_(options.seed) {
  RGLEAK_REQUIRE(options_.trials >= 2, "MC needs at least two trials");
  if (options_.metrics) {
    // The embedding and its exact biases (in parts per million: gauges are
    // integers) for --metrics-json.
    util::metrics::Registry& reg = util::metrics::Registry::instance();
    reg.gauge("mc.embedding_rows").set(static_cast<std::int64_t>(embedding_.padded_rows));
    reg.gauge("mc.embedding_cols").set(static_cast<std::int64_t>(embedding_.padded_cols));
    reg.gauge("mc.embedding_mean_bias_ppm").set(std::llround(1e6 * embedding_.mean_bias));
    reg.gauge("mc.embedding_sigma_bias_ppm").set(std::llround(1e6 * embedding_.sigma_bias));
  }
  table_id_.resize(placement.netlist().size());
  draw_states(rng_);
}

void FullChipMonteCarlo::draw_states(math::Rng& rng) {
  const netlist::Netlist& nl = placement_->netlist();
  for (std::size_t g = 0; g < nl.size(); ++g) {
    const std::size_t ci = nl.gate(g).cell_index;
    const cells::Cell& cell = chars_->library().cell(ci);
    std::uint32_t s = 0;
    for (int bit = 0; bit < cell.num_inputs(); ++bit)
      if (rng.bernoulli(options_.signal_probability)) s |= (1u << bit);
    table_id_[g] = table_for(ci, s);
  }
}

std::uint32_t FullChipMonteCarlo::table_for(std::size_t cell_index, std::uint32_t state) {
  const std::uint64_t key = (static_cast<std::uint64_t>(cell_index) << 32) | state;
  const auto it = table_index_.find(key);
  if (it != table_index_.end()) return it->second;

  const double mu = chars_->process().length().mean_nm;
  const double sigma = chars_->process().length().sigma_total_nm();
  const double span = 8.0 * sigma;
  auto table = std::make_unique<charlib::LeakageTable>(
      chars_->library().cell(cell_index), state, chars_->library().tech(),
      std::max(mu - span, 1.0), mu + std::max(span, 1e-3), options_.table_points);
  const auto id = static_cast<std::uint32_t>(tables_.size());
  tables_.push_back(std::move(table));
  table_index_.emplace(key, id);
  return id;
}

void FullChipMonteCarlo::build_all_state_tables() {
  const netlist::Netlist& nl = placement_->netlist();
  cell_state_ids_.resize(chars_->library().size());
  for (std::size_t g = 0; g < nl.size(); ++g) {
    const std::size_t ci = nl.gate(g).cell_index;
    if (!cell_state_ids_[ci].empty()) continue;
    const std::uint32_t states = 1u << chars_->library().cell(ci).num_inputs();
    cell_state_ids_[ci].resize(states);
    for (std::uint32_t s = 0; s < states; ++s) cell_state_ids_[ci][s] = table_for(ci, s);
  }
}

void FullChipMonteCarlo::draw_states_into(math::Rng& rng,
                                          std::vector<std::uint32_t>& table_id) const {
  const netlist::Netlist& nl = placement_->netlist();
  table_id.resize(nl.size());
  for (std::size_t g = 0; g < nl.size(); ++g) {
    const std::size_t ci = nl.gate(g).cell_index;
    const cells::Cell& cell = chars_->library().cell(ci);
    std::uint32_t s = 0;
    for (int bit = 0; bit < cell.num_inputs(); ++bit)
      if (rng.bernoulli(options_.signal_probability)) s |= (1u << bit);
    RGLEAK_REQUIRE(ci < cell_state_ids_.size() && !cell_state_ids_[ci].empty(),
                   "state table not prebuilt");
    table_id[g] = cell_state_ids_[ci][s];
  }
}

double FullChipMonteCarlo::run_trial(process::GridFieldSampler& field, math::Rng& rng,
                                     McWorkspace& ws) const {
  RGLEAK_FAILPOINT("mc.trial");
  const double mu = chars_->process().length().mean_nm;
  const double d2d = rng.normal(0.0, chars_->process().length().sigma_d2d_nm);
  field.sample_into(rng, ws.field, ws.wid);
  const double base = mu + d2d;
  CompensatedSum acc;
  for (std::size_t g = 0; g < ws.table_id.size(); ++g) {
    const double l = base + ws.wid[placement_->site_of(g)];
    acc.add(tables_[ws.table_id[g]]->eval_na(l));
  }
  return acc.value();
}

double FullChipMonteCarlo::sample_total_na(math::Rng& rng) {
  if (options_.resample_states_per_trial) draw_states(rng);
  // Mirror the run()-path workspace: per-gate table ids live in the
  // workspace (assign reuses capacity — no steady-state allocation).
  if (options_.resample_states_per_trial || ws_.table_id.size() != table_id_.size())
    ws_.table_id.assign(table_id_.begin(), table_id_.end());
  return run_trial(field_, rng, ws_);
}

void FullChipMonteCarlo::restore(const std::string& path, std::size_t threads,
                                 std::vector<std::unique_ptr<Worker>>& workers) const {
  const McCheckpoint ckpt = load_mc_checkpoint(path);
  const auto mismatch = [&](const char* field, auto have, auto want) {
    std::ostringstream os;
    os << "checkpoint " << path << " does not match this run: " << field << " is " << want
       << " in the checkpoint but " << have << " here (resume needs identical seed, threads, "
          "trials, resampling, table points, and netlist)";
    throw ConfigError(os.str());
  };
  if (ckpt.seed != options_.seed) mismatch("seed", options_.seed, ckpt.seed);
  if (ckpt.threads != threads) mismatch("threads", threads, ckpt.threads);
  if (ckpt.trials != options_.trials) mismatch("trials", options_.trials, ckpt.trials);
  if (ckpt.resample_states_per_trial != options_.resample_states_per_trial)
    mismatch("resample_states_per_trial", options_.resample_states_per_trial,
             ckpt.resample_states_per_trial);
  if (ckpt.table_points != options_.table_points)
    mismatch("table_points", options_.table_points, ckpt.table_points);
  if (ckpt.gate_count != placement_->netlist().size())
    mismatch("gate count", placement_->netlist().size(), ckpt.gate_count);

  for (std::size_t w = 0; w < threads; ++w) {
    const McWorkerState& ws = ckpt.workers[w];
    const std::size_t slice =
        (w + 1) * options_.trials / threads - w * options_.trials / threads;
    if (ws.samples.size() > slice)
      mismatch("worker sample count", slice, ws.samples.size());
    workers[w]->rng.set_state(ws.rng);
    if (!ws.cached_field.empty()) workers[w]->field.set_cached_field(ws.cached_field);
    // assign() keeps the slice's reserved capacity, unlike operator=.
    workers[w]->samples.assign(ws.samples.begin(), ws.samples.end());
  }
}

FullChipMcResult FullChipMonteCarlo::run() {
  std::size_t threads = options_.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  try {
    return run_with_threads(threads);
  } catch (const std::bad_alloc&) {
    // Real or injected ("mc.workspace.alloc") allocation failure: surface it
    // typed and located so one starved MC job cannot crash a batch.
    std::ostringstream os;
    os << "full-chip MC: out of memory allocating " << threads << " worker workspace(s) for "
       << placement_->netlist().size() << " gates on a " << field_.rows() << "x" << field_.cols()
       << " site grid (padded " << field_.padded_rows() << "x" << field_.padded_cols() << ")";
    throw ResourceError(os.str());
  }
}

std::uint64_t FullChipMonteCarlo::arena_bytes(const placement::Placement& placement,
                                              const McEmbedding& embedding, std::size_t trials,
                                              std::size_t threads) {
  const placement::Floorplan& fp = placement.floorplan();
  return core::CostModel::mc_embedding_bytes(embedding.padded_rows, embedding.padded_cols,
                                             fp.rows, fp.cols) +
         threads * core::CostModel::mc_worker_bytes(embedding.padded_rows, embedding.padded_cols,
                                                    fp.rows, fp.cols,
                                                    placement.netlist().size()) +
         std::uint64_t{trials} * sizeof(double);
}

FullChipMcResult FullChipMonteCarlo::run_with_threads(std::size_t threads) {
  const util::RunControl* rc = options_.run;

  // Charge the shared embedding, the per-worker arenas (spare field + FFT
  // workspace + WID field and table ids) and the sample slices against the
  // process memory budget up front; the reservation lives until run()
  // returns. This is the tracked backstop behind batch admission, which
  // prices the run with the same arena_bytes — if the budget cannot take it,
  // the job fails typed here instead of OOM-killing the process.
  RGLEAK_FAILPOINT("mc.workspace.alloc");
  const util::MemoryReservation arena(
      arena_bytes(*placement_, embedding_, options_.trials, threads), "mc.workspace");

  // Each worker gets its own RNG stream, field-sampler copy (sharing the
  // engine's embedding; the copy caches the second field of each FFT, and
  // that cache must live as long as the stream) and workspace, and fills a
  // disjoint slice of the trials so the merged sample set is deterministic
  // for a fixed (seed, threads). The
  // serial case is worker 0 continuing rng_ itself, matching the historical
  // serial stream. All of this state persists across checkpoint rounds,
  // which is what makes the result independent of the checkpoint cadence and
  // of interrupt/resume cycles.
  if (options_.resample_states_per_trial) build_all_state_tables();
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(threads);
  if (threads == 1) {
    workers.push_back(std::make_unique<Worker>(rng_, field_));
  } else {
    for (std::size_t w = 0; w < threads; ++w)
      workers.push_back(std::make_unique<Worker>(rng_.fork(), field_));
  }
  std::vector<std::size_t> slice_size(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    slice_size[w] = (w + 1) * options_.trials / threads - w * options_.trials / threads;
    workers[w]->ws.table_id = table_id_;
    workers[w]->samples.reserve(slice_size[w]);
  }

  if (!options_.resume_path.empty()) restore(options_.resume_path, threads, workers);

  // The writer outlives the round loop so every cadence reuses its text
  // buffer; worker state is streamed in place (no per-cadence deep copies).
  // Publication goes through the background flusher so filesystem stalls
  // overlap with the next round's trials; `durable` forces a synchronous
  // flush for checkpoints that must hit disk before run() exits.
  McCheckpointWriter ckpt_writer;
  std::optional<CheckpointFlusher> flusher;
  if (!options_.checkpoint_path.empty()) flusher.emplace(options_.checkpoint_path);
  const auto checkpoint_now = [&](bool durable) {
    ckpt_writer.begin(options_.seed, threads, options_.trials,
                      options_.resample_states_per_trial, options_.table_points,
                      placement_->netlist().size(), threads);
    for (std::size_t w = 0; w < threads; ++w) {
      const Worker& wk = *workers[w];
      ckpt_writer.add_worker(wk.rng.state(),
                             wk.field.has_cached_field() ? &wk.field.cached_field() : nullptr,
                             wk.samples);
    }
    flusher->publish(ckpt_writer.finish());
    if (durable) flusher->flush();
  };
  const auto all_done = [&] {
    for (std::size_t w = 0; w < threads; ++w)
      if (workers[w]->samples.size() < slice_size[w]) return false;
    return true;
  };

  // Round loop: each round advances every worker by at most `chunk` trials,
  // then checkpoints. Workers poll the run control per trial and drain (the
  // control is deliberately NOT handed to parallel_for — a worker that stops
  // must keep its partial state for the final checkpoint).
  const std::size_t chunk = options_.checkpoint_every == 0
                                ? options_.trials
                                : std::max<std::size_t>(1, options_.checkpoint_every / threads);
  // Armed once here, then one relaxed fetch_add per trial — the whole cost of
  // the observability layer on the hot path (a trial is at minimum one grid
  // FFT, so the add is noise; the bench asserts ≤2% against the off state).
  util::metrics::Counter* trials_counter =
      options_.metrics ? &util::metrics::Registry::instance().counter("mc.trials") : nullptr;
  const auto worker_round = [&](std::size_t w) {
    Worker& wk = *workers[w];
    const std::size_t target = slice_size[w];
    for (std::size_t did = 0; wk.samples.size() < target && did < chunk; ++did) {
      if (rc && rc->should_stop()) break;
      if (options_.resample_states_per_trial) draw_states_into(wk.rng, wk.ws.table_id);
      wk.samples.push_back(run_trial(wk.field, wk.rng, wk.ws));
      if (trials_counter != nullptr) trials_counter->add();
    }
  };

  while (!all_done()) {
    if (threads == 1) {
      worker_round(0);
    } else {
      util::ThreadPool::shared(threads).parallel_for(threads, worker_round);
    }
    const bool stopping = rc && rc->should_stop() && !all_done();
    if (flusher && (options_.checkpoint_every > 0 || stopping))
      checkpoint_now(/*durable=*/stopping);
    if (stopping) throw rc->make_error("mc.run");
  }
  if (flusher) flusher->flush();  // last periodic image is durable on return

  if (threads == 1) rng_ = workers[0]->rng;
  math::SampleSet acc;
  acc.reserve(options_.trials);
  for (const auto& w : workers)
    for (double v : w->samples) acc.add(v);
  FullChipMcResult r;
  r.mean_na = acc.mean();
  r.sigma_na = acc.stddev();
  if (!std::isfinite(r.mean_na) || !std::isfinite(r.sigma_na) || r.sigma_na < 0.0) {
    std::ostringstream os;
    os << "full-chip MC: non-physical result (mean " << r.mean_na << " nA, sigma " << r.sigma_na
       << " nA) after " << options_.trials << " trials on "
       << placement_->netlist().size() << " gates";
    throw NumericalError(os.str());
  }
  r.trials = options_.trials;
  r.embedding = embedding_;
  r.p50_na = acc.percentile(0.50);
  r.p90_na = acc.percentile(0.90);
  r.p99_na = acc.percentile(0.99);
  return r;
}

}  // namespace rgleak::mc
