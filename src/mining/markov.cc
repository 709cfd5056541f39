#include "mining/markov.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace sitm::mining {

Result<MarkovModel> MarkovModel::Fit(
    const std::vector<core::SemanticTrajectory>& trajectories, double alpha) {
  if (alpha < 0) {
    return Status::InvalidArgument("MarkovModel: alpha must be >= 0");
  }
  MarkovModel model;
  model.alpha_ = alpha;
  std::unordered_set<CellId> state_set;
  std::size_t transitions = 0;
  for (const core::SemanticTrajectory& t : trajectories) {
    const auto& intervals = t.trace().intervals();
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      state_set.insert(intervals[i].cell);
      if (i == 0 || intervals[i].cell == intervals[i - 1].cell) continue;
      ++model.counts_[intervals[i - 1].cell][intervals[i].cell];
      ++model.row_totals_[intervals[i - 1].cell];
      ++transitions;
    }
  }
  if (transitions == 0) {
    return Status::FailedPrecondition(
        "MarkovModel: the trajectories contain no transitions");
  }
  model.states_.assign(state_set.begin(), state_set.end());
  std::sort(model.states_.begin(), model.states_.end());
  return model;
}

double MarkovModel::SmoothedProbability(
    CellId to, const std::map<CellId, std::size_t>* row,
    std::size_t row_total) const {
  if (row == nullptr || row_total == 0) return 0;
  // Smoothing spreads alpha over every *observed* state as a potential
  // successor, so unseen-but-plausible steps get nonzero probability
  // while the support stays bounded by the fitted vocabulary.
  const double denominator =
      static_cast<double>(row_total) +
      alpha_ * static_cast<double>(states_.size());
  auto it = row->find(to);
  const double count = it == row->end() ? 0 : static_cast<double>(it->second);
  return (count + alpha_) / denominator;
}

double MarkovModel::TransitionProbability(CellId from, CellId to) const {
  auto row = counts_.find(from);
  auto total = row_totals_.find(from);
  if (row == counts_.end() || total == row_totals_.end()) return 0;
  return SmoothedProbability(to, &row->second, total->second);
}

Result<CellId> MarkovModel::PredictNext(CellId from) const {
  auto row = counts_.find(from);
  if (row == counts_.end() || row->second.empty()) {
    return Status::NotFound("MarkovModel: state #" +
                            std::to_string(from.value()) +
                            " has no observed successors");
  }
  CellId best;
  std::size_t best_count = 0;
  for (const auto& [to, count] : row->second) {
    if (count > best_count || (count == best_count && to < best)) {
      best = to;
      best_count = count;
    }
  }
  return best;
}

std::vector<std::pair<CellId, double>> MarkovModel::TopSuccessors(
    CellId from, std::size_t k) const {
  std::vector<std::pair<CellId, double>> out;
  auto row = counts_.find(from);
  auto total = row_totals_.find(from);
  if (row == counts_.end() || total == row_totals_.end()) return out;
  for (const auto& [to, count] : row->second) {
    out.emplace_back(to,
                     SmoothedProbability(to, &row->second, total->second));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

double MarkovModel::LogLikelihoodPerTransition(
    const core::SemanticTrajectory& trajectory) const {
  const auto& intervals = trajectory.trace().intervals();
  double total = 0;
  int transitions = 0;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].cell == intervals[i - 1].cell) continue;
    double p = TransitionProbability(intervals[i - 1].cell,
                                     intervals[i].cell);
    if (p <= 0) p = 1e-12;  // unknown origin state: maximal surprise
    total += std::log2(p);
    ++transitions;
  }
  return transitions == 0 ? 0 : total / transitions;
}

std::vector<std::pair<CellId, double>> MarkovModel::StationaryDistribution(
    int iterations) const {
  const std::size_t n = states_.size();
  std::vector<std::pair<CellId, double>> result;
  if (n == 0) return result;
  std::map<CellId, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) index[states_[i]] = i;
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (int iter = 0; iter < iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const CellId from = states_[i];
      auto row = counts_.find(from);
      auto total = row_totals_.find(from);
      if (row == counts_.end() || total->second == 0) {
        // Sink states restart uniformly (a visit ends, another begins).
        for (std::size_t j = 0; j < n; ++j) {
          next[j] += pi[i] / static_cast<double>(n);
        }
        continue;
      }
      // Spread the smoothed mass: observed successors get their share,
      // the rest of alpha spreads uniformly.
      const double denominator =
          static_cast<double>(total->second) +
          alpha_ * static_cast<double>(n);
      const double uniform_share = alpha_ / denominator;
      for (std::size_t j = 0; j < n; ++j) next[j] += pi[i] * uniform_share;
      for (const auto& [to, count] : row->second) {
        next[index[to]] +=
            pi[i] * static_cast<double>(count) / denominator;
      }
    }
    pi.swap(next);
  }
  for (std::size_t i = 0; i < n; ++i) result.emplace_back(states_[i], pi[i]);
  std::sort(result.begin(), result.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return result;
}

Result<std::vector<CellId>> MarkovModel::SampleWalk(CellId start,
                                                    std::size_t length,
                                                    Rng* rng) const {
  if (rng == nullptr) {
    return Status::InvalidArgument("SampleWalk: rng must not be null");
  }
  if (std::find(states_.begin(), states_.end(), start) == states_.end()) {
    return Status::NotFound("SampleWalk: unknown start state #" +
                            std::to_string(start.value()));
  }
  std::vector<CellId> walk{start};
  CellId current = start;
  while (walk.size() < length) {
    auto row = counts_.find(current);
    if (row == counts_.end() || row->second.empty()) break;  // sink
    std::vector<double> weights;
    std::vector<CellId> successors;
    auto total = row_totals_.find(current);
    for (const auto& [to, count] : row->second) {
      successors.push_back(to);
      weights.push_back(SmoothedProbability(to, &row->second, total->second));
    }
    current = successors[rng->NextWeighted(weights)];
    walk.push_back(current);
  }
  return walk;
}

}  // namespace sitm::mining
