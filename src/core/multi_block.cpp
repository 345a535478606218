#include "core/multi_block.h"

#include <cmath>

#include "util/require.h"

namespace rgleak::core {

namespace {

bool rectangles_overlap(const BlockSpec& a, const BlockSpec& b) {
  const bool x_disjoint = a.col0 + a.cols <= b.col0 || b.col0 + b.cols <= a.col0;
  const bool y_disjoint = a.row0 + a.rows <= b.row0 || b.row0 + b.rows <= a.row0;
  return !(x_disjoint || y_disjoint);
}

}  // namespace

MultiBlockEstimator::MultiBlockEstimator(const charlib::CharacterizedLibrary& chars,
                                         placement::Floorplan floorplan,
                                         std::vector<BlockSpec> blocks,
                                         double signal_probability, CorrelationMode mode)
    : chars_(&chars), fp_(floorplan), blocks_(std::move(blocks)), mode_(mode) {
  RGLEAK_REQUIRE(!blocks_.empty(), "multi-block estimator needs at least one block");
  for (const auto& b : blocks_) {
    RGLEAK_REQUIRE(b.cols >= 1 && b.rows >= 1, "block '" + b.name + "' is empty");
    RGLEAK_REQUIRE(b.col0 + b.cols <= fp_.cols && b.row0 + b.rows <= fp_.rows,
                   "block '" + b.name + "' exceeds the floorplan");
  }
  for (std::size_t i = 0; i < blocks_.size(); ++i)
    for (std::size_t j = i + 1; j < blocks_.size(); ++j)
      RGLEAK_REQUIRE(!rectangles_overlap(blocks_[i], blocks_[j]),
                     "blocks '" + blocks_[i].name + "' and '" + blocks_[j].name +
                         "' overlap");

  rg_.reserve(blocks_.size());
  std::vector<std::vector<charlib::RgComponent>> components;
  for (const auto& b : blocks_) {
    rg_.emplace_back(chars, b.usage, signal_probability, mode);
    components.push_back(
        charlib::make_rg_components(chars, b.usage.alphas, signal_probability));
  }

  cross_.reserve(blocks_.size() * blocks_.size());
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    for (std::size_t j = 0; j < blocks_.size(); ++j) {
      if (j < i) continue;  // store upper triangle in order
      cross_.emplace_back(components[i], components[j],
                          /*simplified=*/mode == CorrelationMode::kSimplified);
    }
  }
}

const BlockSpec& MultiBlockEstimator::block(std::size_t b) const {
  RGLEAK_REQUIRE(b < blocks_.size(), "block index out of range");
  return blocks_[b];
}

const charlib::CrossRgCovariance& MultiBlockEstimator::cross(std::size_t b1,
                                                             std::size_t b2) const {
  if (b1 > b2) std::swap(b1, b2);
  // Upper-triangular row-major layout: row i starts after sum of previous
  // row lengths (n - k for k < i).
  const std::size_t n = blocks_.size();
  const std::size_t row_start = b1 * n - b1 * (b1 + 1) / 2 + b1;  // == b1*(n) - ...
  return cross_[row_start + (b2 - b1)];
}

double MultiBlockEstimator::rect_pair_sum(std::size_t b1, std::size_t b2) const {
  const BlockSpec& a = blocks_[b1];
  const BlockSpec& b = blocks_[b2];
  const auto a0c = static_cast<long long>(a.col0), a0r = static_cast<long long>(a.row0);
  const auto b0c = static_cast<long long>(b.col0), b0r = static_cast<long long>(b.row0);
  const auto mac = static_cast<long long>(a.cols), mar = static_cast<long long>(a.rows);
  const auto mbc = static_cast<long long>(b.cols), mbr = static_cast<long long>(b.rows);

  const bool same = b1 == b2;
  const auto& cross_model = cross(b1, b2);
  const RandomGate& rg = rg_[b1];
  const process::ProcessVariation& process = chars_->process();

  double total = 0.0;
  // Column offset histogram: count of (c1 in A, c2 in B) with c2 - c1 = dc.
  for (long long dc = b0c - (a0c + mac) + 1; dc <= b0c + mbc - 1 - a0c; ++dc) {
    const long long lo = std::max(a0c, b0c - dc);
    const long long hi = std::min(a0c + mac, b0c + mbc - dc);
    if (hi <= lo) continue;
    const double wc = static_cast<double>(hi - lo);
    const double dx = static_cast<double>(dc) * fp_.site_w_nm;
    for (long long dr = b0r - (a0r + mar) + 1; dr <= b0r + mbr - 1 - a0r; ++dr) {
      const long long rlo = std::max(a0r, b0r - dr);
      const long long rhi = std::min(a0r + mar, b0r + mbr - dr);
      if (rhi <= rlo) continue;
      const double wr = static_cast<double>(rhi - rlo);
      const double dy = static_cast<double>(dr) * fp_.site_h_nm;
      double cov;
      if (same) {
        cov = rg.covariance_at_offset(dx, dy);  // handles the (0,0) diagonal
      } else {
        cov = cross_model.covariance(process.total_length_correlation_xy(dx, dy));
      }
      total += wc * wr * cov;
    }
  }
  return total;
}

LeakageEstimate MultiBlockEstimator::block_estimate(std::size_t b) const {
  RGLEAK_REQUIRE(b < blocks_.size(), "block index out of range");
  LeakageEstimate e;
  e.mean_na = static_cast<double>(blocks_[b].num_sites()) * rg_[b].mean_na();
  e.sigma_na = std::sqrt(rect_pair_sum(b, b));
  return e;
}

double MultiBlockEstimator::block_covariance(std::size_t b1, std::size_t b2) const {
  RGLEAK_REQUIRE(b1 < blocks_.size() && b2 < blocks_.size(), "block index out of range");
  return rect_pair_sum(b1, b2);
}

double MultiBlockEstimator::block_correlation(std::size_t b1, std::size_t b2) const {
  const double v1 = rect_pair_sum(b1, b1);
  const double v2 = rect_pair_sum(b2, b2);
  RGLEAK_REQUIRE(v1 > 0.0 && v2 > 0.0, "block variance is zero");
  return block_covariance(b1, b2) / std::sqrt(v1 * v2);
}

math::Matrix MultiBlockEstimator::covariance_matrix() const {
  const std::size_t n = blocks_.size();
  math::Matrix cov(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) cov(i, j) = cov(j, i) = block_covariance(i, j);
  return cov;
}

void MultiBlockEstimator::set_block_position(std::size_t b, std::size_t col0,
                                             std::size_t row0) {
  RGLEAK_REQUIRE(b < blocks_.size(), "block index out of range");
  BlockSpec moved = blocks_[b];
  moved.col0 = col0;
  moved.row0 = row0;
  RGLEAK_REQUIRE(moved.col0 + moved.cols <= fp_.cols && moved.row0 + moved.rows <= fp_.rows,
                 "moved block exceeds the floorplan");
  for (std::size_t j = 0; j < blocks_.size(); ++j)
    RGLEAK_REQUIRE(j == b || !rectangles_overlap(moved, blocks_[j]),
                   "moved block overlaps '" + blocks_[j].name + "'");
  blocks_[b].col0 = col0;
  blocks_[b].row0 = row0;
}

void MultiBlockEstimator::swap_block_positions(std::size_t b1, std::size_t b2) {
  RGLEAK_REQUIRE(b1 < blocks_.size() && b2 < blocks_.size(), "block index out of range");
  RGLEAK_REQUIRE(blocks_[b1].cols == blocks_[b2].cols && blocks_[b1].rows == blocks_[b2].rows,
                 "swap needs identical block extents");
  std::swap(blocks_[b1].col0, blocks_[b2].col0);
  std::swap(blocks_[b1].row0, blocks_[b2].row0);
}

LeakageEstimate MultiBlockEstimator::chip_estimate() const {
  const math::Matrix cov = covariance_matrix();
  double mean = 0.0, var = 0.0;
  for (std::size_t i = 0; i < blocks_.size(); ++i)
    mean += static_cast<double>(blocks_[i].num_sites()) * rg_[i].mean_na();
  for (std::size_t i = 0; i < cov.rows(); ++i)
    for (std::size_t j = 0; j < cov.cols(); ++j) var += cov(i, j);
  LeakageEstimate e;
  e.mean_na = mean;
  e.sigma_na = std::sqrt(var);
  return e;
}

}  // namespace rgleak::core
