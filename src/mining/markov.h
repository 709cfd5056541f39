#pragma once

#include <map>
#include <vector>

#include "base/result.h"
#include "base/rng.h"
#include "core/trajectory.h"

namespace sitm::mining {

/// \brief A first-order Markov mobility model over cells, fitted from
/// trajectories.
///
/// This is the simplest of the "statistical analytics" the SITM is
/// designed to support (§3): transition probabilities between symbolic
/// cells at any granularity — fit it on zone-level traces for zone
/// dynamics, or on projected floor-level traces for floor dynamics.
/// Supports next-cell prediction, trajectory likelihood scoring
/// (low-likelihood visits are anomalies or data errors), stationary
/// distribution estimation, and synthetic walk generation.
class MarkovModel {
 public:
  /// Fits transition counts from every consecutive cell pair of every
  /// trajectory, with additive (Laplace) smoothing weight `alpha`
  /// applied at query time over the observed successor sets.
  /// Fails if the trajectories contain no transitions at all.
  [[nodiscard]] static Result<MarkovModel> Fit(
      const std::vector<core::SemanticTrajectory>& trajectories,
      double alpha = 0.5);

  /// Number of distinct states (cells) seen.
  std::size_t num_states() const { return states_.size(); }

  /// All states, sorted by id.
  const std::vector<CellId>& states() const { return states_; }

  /// P(next = to | current = from), smoothed. Zero for unknown `from`.
  double TransitionProbability(CellId from, CellId to) const;

  /// The most likely successor of `from`, or NotFound for sink/unknown
  /// states.
  [[nodiscard]] Result<CellId> PredictNext(CellId from) const;

  /// The top-k successors of `from` by probability (may return fewer).
  std::vector<std::pair<CellId, double>> TopSuccessors(CellId from,
                                                       std::size_t k) const;

  /// \brief Average per-transition log2-likelihood of a trajectory
  /// under the model (0 transitions yields 0). More negative = more
  /// surprising; useful as an anomaly score for localization glitches.
  double LogLikelihoodPerTransition(
      const core::SemanticTrajectory& trajectory) const;

  /// \brief The stationary distribution via power iteration over the
  /// smoothed chain (restricted to observed states). Returns pairs
  /// sorted by probability, descending. The vector sums to ~1.
  std::vector<std::pair<CellId, double>> StationaryDistribution(
      int iterations = 200) const;

  /// Generates a synthetic walk of `length` cells starting at `start`
  /// (sampling smoothed transition probabilities). Stops early at sink
  /// states. Deterministic per rng seed.
  [[nodiscard]] Result<std::vector<CellId>> SampleWalk(CellId start, std::size_t length,
                                         Rng* rng) const;

 private:
  MarkovModel() = default;

  double SmoothedProbability(CellId to,
                             const std::map<CellId, std::size_t>* row,
                             std::size_t row_total) const;

  std::vector<CellId> states_;
  std::map<CellId, std::map<CellId, std::size_t>> counts_;
  std::map<CellId, std::size_t> row_totals_;
  double alpha_ = 0.5;
};

}  // namespace sitm::mining

