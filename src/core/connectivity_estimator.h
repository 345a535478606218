#pragma once
// Connectivity-aware exact estimator.
//
// The paper's estimators use one global signal probability. With netlist
// connectivity available, per-net probabilities can be propagated and every
// gate gets its own input-state distribution; this estimator computes the
// exact O(n^2) statistics under those per-gate distributions. Comparing it
// against the global-p ExactEstimator quantifies what the section-2.1.4
// ball-park assumption costs on real(istic) topologies
// (bench_signal_propagation).

#include <vector>

#include "core/estimate.h"
#include "core/random_gate.h"
#include "netlist/connectivity.h"
#include "placement/placement.h"

namespace rgleak::core {

/// Immutable after construction: concurrent estimate() calls are safe.
class ConnectivityAwareEstimator {
 public:
  ConnectivityAwareEstimator(const charlib::CharacterizedLibrary& chars, CorrelationMode mode);

  /// Exact pairwise estimate of the connected netlist placed row-major on
  /// `fp` (gate g at site g), with primary inputs at `input_probability` and
  /// per-gate state distributions from probability propagation.
  LeakageEstimate estimate(const netlist::ConnectedNetlist& netlist,
                           const placement::Floorplan& fp, double input_probability) const;

 private:
  const charlib::CharacterizedLibrary* chars_;
  CorrelationMode mode_;
};

}  // namespace rgleak::core
