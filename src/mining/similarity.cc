#include "mining/similarity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_set>
#include <utility>

#include "sched/parallel.h"
#include "mining/patterns.h"

namespace sitm::mining {

CellCost UnitCellCost() {
  return [](CellId a, CellId b) { return a == b ? 0.0 : 1.0; };
}

CellCost HierarchyCellCost(const indoor::LayerHierarchy* hierarchy,
                           int max_distance) {
  return [hierarchy, max_distance](CellId a, CellId b) {
    if (a == b) return 0.0;
    const Result<int> d = hierarchy->LcaDistance(a, b);
    if (!d.ok()) return 1.0;  // different roots: maximally dissimilar
    if (max_distance <= 0) return 1.0;
    return std::min(1.0, static_cast<double>(d.value()) / max_distance);
  };
}

double EditDistance(const std::vector<CellId>& a, const std::vector<CellId>& b,
                    const CellCost& substitution_cost) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0) return static_cast<double>(m);
  if (m == 0) return static_cast<double>(n);
  std::vector<double> prev(m + 1);
  std::vector<double> cur(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = static_cast<double>(j);
  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<double>(i);
    for (std::size_t j = 1; j <= m; ++j) {
      const double subst = prev[j - 1] + substitution_cost(a[i - 1], b[j - 1]);
      cur[j] = std::min({prev[j] + 1.0, cur[j - 1] + 1.0, subst});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double EditDistanceBounded(const std::vector<CellId>& a,
                           const std::vector<CellId>& b,
                           const CellCost& substitution_cost, double cutoff) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (cutoff < 0) return kInf;
  const std::size_t length_gap = n > m ? n - m : m - n;
  if (static_cast<double>(length_gap) > cutoff) return kInf;  // D >= gap
  const std::size_t longest = std::max(n, m);
  // Band halfwidth: |i - j| > cutoff cells are unreachable under the
  // cutoff; integer |i - j| makes floor(cutoff) exact. Clamped so a
  // +infinity cutoff degenerates to the full table, not to UB.
  const std::size_t band = cutoff >= static_cast<double>(longest)
                               ? longest
                               : static_cast<std::size_t>(cutoff);
  if (n == 0 || m == 0) return static_cast<double>(longest);

  std::vector<double> prev(m + 1, kInf);
  std::vector<double> cur(m + 1, kInf);
  for (std::size_t j = 0; j <= std::min(m, band); ++j) {
    prev[j] = static_cast<double>(j);
  }
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t jlo = i > band ? i - band : 1;
    const std::size_t jhi = std::min(m, i + band);
    // Column 0 (j = 0) is inside the band only while i <= band.
    cur[jlo - 1] = jlo == 1 && i <= band ? static_cast<double>(i) : kInf;
    double row_min = cur[jlo - 1];
    for (std::size_t j = jlo; j <= jhi; ++j) {
      const double subst = prev[j - 1] + substitution_cost(a[i - 1], b[j - 1]);
      cur[j] = std::min({prev[j] + 1.0, cur[j - 1] + 1.0, subst});
      row_min = std::min(row_min, cur[j]);
    }
    // The band shifts right as i grows: clear the cell just past the
    // right edge so the next row never reads a value two rows stale.
    if (jhi < m) cur[jhi + 1] = kInf;
    if (row_min > cutoff) return kInf;  // no path can get cheaper again
    std::swap(prev, cur);
  }
  return prev[m] <= cutoff ? prev[m] : kInf;
}

double EditDistanceCutoff(double similarity, std::size_t longest) {
  const double length = static_cast<double>(longest);
  const double share = 1.0 - similarity;
  // Each rounding step is off by a few units in the last place of
  // magnitudes up to (|similarity| + |share| + 1) * length; a relative
  // slack of 1e-9 covers them many times over and admits at most a
  // sliver of extra DP work.
  return share * length +
         (std::abs(similarity) + std::abs(share) + 1.0) * length * 1e-9;
}

double EditSimilarity(const std::vector<CellId>& a,
                      const std::vector<CellId>& b,
                      const CellCost& substitution_cost) {
  const std::size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  const std::size_t length_gap =
      a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  // EditDistance >= ||a| - |b|| (indels cost 1, substitutions preserve
  // length), so a gap of the full length already pins similarity at 0.
  if (length_gap >= longest) return 0.0;
  return 1.0 - EditDistance(a, b, substitution_cost) /
                   static_cast<double>(longest);
}

std::size_t LcsLength(const std::vector<CellId>& a,
                      const std::vector<CellId>& b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  std::vector<std::size_t> prev(m + 1, 0);
  std::vector<std::size_t> cur(m + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      cur[j] = a[i - 1] == b[j - 1] ? prev[j - 1] + 1
                                    : std::max(prev[j], cur[j - 1]);
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double LcssSimilarity(const std::vector<CellId>& a,
                      const std::vector<CellId>& b) {
  const std::size_t shortest = std::min(a.size(), b.size());
  if (shortest == 0) return 1.0;
  return static_cast<double>(LcsLength(a, b)) /
         static_cast<double>(shortest);
}

double JaccardCellSimilarity(const core::SemanticTrajectory& a,
                             const core::SemanticTrajectory& b) {
  const std::vector<CellId> cells_a = a.trace().VisitedCells();
  const std::vector<CellId> cells_b = b.trace().VisitedCells();
  const std::unordered_set<CellId> set_a(cells_a.begin(), cells_a.end());
  const std::unordered_set<CellId> set_b(cells_b.begin(), cells_b.end());
  std::size_t intersection = 0;
  for (CellId c : set_a) {
    if (set_b.count(c) > 0) ++intersection;
  }
  const std::size_t unions = set_a.size() + set_b.size() - intersection;
  return unions == 0 ? 1.0
                     : static_cast<double>(intersection) /
                           static_cast<double>(unions);
}

double DwellDistributionDistance(const core::SemanticTrajectory& a,
                                 const core::SemanticTrajectory& b) {
  auto distribution = [](const core::SemanticTrajectory& t) {
    std::map<CellId, double> d;
    double total = 0;
    for (const core::PresenceInterval& p : t.trace().intervals()) {
      d[p.cell] += static_cast<double>(p.duration().seconds());
      total += static_cast<double>(p.duration().seconds());
    }
    if (total > 0) {
      for (auto& [cell, w] : d) w /= total;
    }
    return d;
  };
  const std::map<CellId, double> da = distribution(a);
  const std::map<CellId, double> db = distribution(b);
  double dist = 0;
  for (const auto& [cell, w] : da) {
    auto it = db.find(cell);
    dist += std::fabs(w - (it == db.end() ? 0.0 : it->second));
  }
  for (const auto& [cell, w] : db) {
    if (da.count(cell) == 0) dist += w;
  }
  return dist;
}

double AnnotationSimilarity(const core::SemanticTrajectory& a,
                            const core::SemanticTrajectory& b) {
  const auto& sa = a.annotations().annotations();
  const auto& sb = b.annotations().annotations();
  std::size_t intersection = 0;
  for (const core::SemanticAnnotation& ann : sa) {
    if (b.annotations().Contains(ann)) ++intersection;
  }
  const std::size_t unions = sa.size() + sb.size() - intersection;
  return unions == 0 ? 1.0
                     : static_cast<double>(intersection) /
                           static_cast<double>(unions);
}

TrajectoryDistance EditTrajectoryDistance(CellCost substitution_cost,
                                          double min_similarity) {
  return [cost = std::move(substitution_cost), min_similarity](
             const core::SemanticTrajectory& a,
             const core::SemanticTrajectory& b) {
    const std::vector<CellId> seq_a = CellSequenceOf(a);
    const std::vector<CellId> seq_b = CellSequenceOf(b);
    const std::size_t longest = std::max(seq_a.size(), seq_b.size());
    if (longest == 0) return 0.0;  // two empty traces are identical
    const double cutoff =
        (1.0 - min_similarity) * static_cast<double>(longest);
    const double d = EditDistanceBounded(seq_a, seq_b, cost, cutoff);
    if (std::isinf(d)) return 1.0;  // similarity below the floor
    return d / static_cast<double>(longest);
  };
}

std::vector<double> DistanceMatrix(
    const std::vector<core::SemanticTrajectory>& trajectories,
    const TrajectoryDistance& distance,
    const DistanceMatrixOptions& options) {
  const std::size_t n = trajectories.size();
  std::vector<double> matrix(n * n, 0.0);
  if (n < 2) return matrix;
  const std::size_t block = std::max<std::size_t>(1, options.block);
  const std::size_t num_bands = (n + block - 1) / block;

  // Upper-triangle blocks (bi <= bj), each one unit of parallel work.
  // A block writes only its own cells and their mirrors in the transposed
  // block — no two blocks overlap, so the fill is race-free and every
  // cell's value is independent of the schedule.
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  blocks.reserve(num_bands * (num_bands + 1) / 2);
  for (std::size_t bi = 0; bi < num_bands; ++bi) {
    for (std::size_t bj = bi; bj < num_bands; ++bj) {
      blocks.emplace_back(bi, bj);
    }
  }

  double* cells = matrix.data();
  // Thread-safety: each block owns a disjoint (i, j) rectangle of
  // `cells` (j > i, blocks partition the upper triangle), so raw
  // pointer writes need no lock; `distance` must be re-entrant.
  sched::ParallelFor(
      options.executor, blocks.size(),
      [&blocks, &trajectories, &distance, cells, n,
       block](std::size_t begin, std::size_t end) {
        for (std::size_t index = begin; index < end; ++index) {
          const auto [bi, bj] = blocks[index];
          const std::size_t i_end = std::min(n, (bi + 1) * block);
          const std::size_t j_end = std::min(n, (bj + 1) * block);
          for (std::size_t i = bi * block; i < i_end; ++i) {
            for (std::size_t j = std::max(i + 1, bj * block); j < j_end;
                 ++j) {
              const double d = distance(trajectories[i], trajectories[j]);
              cells[i * n + j] = d;
              cells[j * n + i] = d;
            }
          }
        }
      },
      /*grain=*/1, "matrix/block");
  return matrix;
}

std::vector<double> DistanceMatrix(
    const std::vector<core::SemanticTrajectory>& trajectories,
    const TrajectoryDistance& distance) {
  return DistanceMatrix(trajectories, distance, DistanceMatrixOptions{});
}

}  // namespace sitm::mining
