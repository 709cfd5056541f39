#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "base/result.h"
#include "base/task_runner.h"
#include "core/trajectory.h"
#include "indoor/hierarchy.h"

namespace sitm::mining {

/// Substitution cost between two cells, in [0, 1].
using CellCost = std::function<double(CellId, CellId)>;

/// The 0/1 cost: 0 iff equal.
CellCost UnitCellCost();

/// \brief Hierarchy-aware substitution cost (the paper's future-work
/// "semantic similarity metrics for trajectories"): cells that share a
/// deep common ancestor are cheaper to substitute than cells meeting
/// only at the root. Cost = LcaDistance(a, b) / max_distance, clamped to
/// [0, 1]; unrelated cells (no common ancestor) cost 1.
CellCost HierarchyCellCost(const indoor::LayerHierarchy* hierarchy,
                           int max_distance);

/// \brief Edit distance between two cell sequences with unit
/// insert/delete cost and the given substitution cost. Two rolling DP
/// rows, O(min over the table width) memory.
double EditDistance(const std::vector<CellId>& a, const std::vector<CellId>& b,
                    const CellCost& substitution_cost);

/// \brief Edit distance with a cutoff: returns the exact distance when
/// it is <= `cutoff`, +infinity otherwise.
///
/// Uses the band bound: insert/delete cost 1 and substitution preserves
/// length, so D(i, j) >= |i - j| — cells outside the |i - j| <= cutoff
/// band cannot lie on a path of total cost <= cutoff. The DP therefore
/// runs on a band of width 2*floor(cutoff)+1 (O(cutoff * max_len) work
/// instead of O(|a|*|b|)), exits before the DP when the length
/// difference alone exceeds the cutoff, and exits mid-DP when a whole
/// row's minimum does.
double EditDistanceBounded(const std::vector<CellId>& a,
                           const std::vector<CellId>& b,
                           const CellCost& substitution_cost, double cutoff);

/// \brief The EditDistanceBounded cutoff that keeps every pair of
/// longer length `longest` whose EditSimilarity is at least
/// `similarity`: (1 - similarity) * longest, loosened past the rounding
/// of both that product and EditSimilarity's own 1 - d / longest, so a
/// distance computed back from a similarity is always accepted at it.
/// Holds for any non-negative substitution cost.
double EditDistanceCutoff(double similarity, std::size_t longest);

/// 1 - EditDistance / max(|a|, |b|); 1 for two empty sequences. The
/// length-difference lower bound (EditDistance >= ||a| - |b||) makes
/// ||a| - |b|| >= max(|a|, |b|) imply similarity 0 without running the
/// DP.
double EditSimilarity(const std::vector<CellId>& a,
                      const std::vector<CellId>& b,
                      const CellCost& substitution_cost);

/// Length of the longest common subsequence.
std::size_t LcsLength(const std::vector<CellId>& a,
                      const std::vector<CellId>& b);

/// LcsLength / min(|a|, |b|) (the LCSS similarity); 1 when either
/// sequence is empty.
double LcssSimilarity(const std::vector<CellId>& a,
                      const std::vector<CellId>& b);

/// Jaccard similarity of the visited-cell sets of two trajectories.
double JaccardCellSimilarity(const core::SemanticTrajectory& a,
                             const core::SemanticTrajectory& b);

/// \brief L1 distance between the normalized dwell-time distributions of
/// two trajectories (how differently they budget their time across
/// cells), in [0, 2].
double DwellDistributionDistance(const core::SemanticTrajectory& a,
                                 const core::SemanticTrajectory& b);

/// Jaccard similarity of the trajectory-level annotation sets.
double AnnotationSimilarity(const core::SemanticTrajectory& a,
                            const core::SemanticTrajectory& b);

/// A full pairwise distance matrix (row-major, n x n) under the given
/// trajectory distance.
using TrajectoryDistance = std::function<double(
    const core::SemanticTrajectory&, const core::SemanticTrajectory&)>;

/// \brief The edit-distance trajectory metric for matrix fills:
/// EditDistance over the trajectories' transition cell sequences
/// (CellSequenceOf), normalized to [0, 1] by the longer sequence.
///
/// `min_similarity` is a similarity floor for threshold-driven mining:
/// pairs whose similarity would fall below it evaluate to distance 1
/// through EditDistanceBounded's banded cutoff DP — the early-exit band
/// bound — instead of paying the full table. With substitution costs in
/// [0, 1] (the CellCost contract) the edit distance never exceeds the
/// longer sequence, so a floor of 0 keeps exact distances for every
/// pair; costs above 1 would additionally be clamped to distance 1.
TrajectoryDistance EditTrajectoryDistance(CellCost substitution_cost,
                                          double min_similarity = 0.0);

/// Options for the blocked distance-matrix fill.
struct DistanceMatrixOptions {
  /// Runner to fill blocks on (borrowed; not owned; entry points pass
  /// a sched::Executor). Null fills on the calling thread. The distance
  /// function must be safe to call concurrently on distinct trajectory
  /// pairs.
  TaskRunner* executor = nullptr;
  /// Block edge length in cells. Each upper-triangle block is one unit
  /// of parallel work; its mirror cells are written by the same task, so
  /// no cell is ever touched by two tasks.
  std::size_t block = 128;
};

/// \brief Fills the matrix block by block over the upper triangle,
/// mirroring each cell into the lower triangle (distance is assumed
/// symmetric, and the diagonal stays 0 — each d(i, j) is evaluated once,
/// for i < j).
///
/// Deterministic: every cell holds the same value for any pool size,
/// including the sequential fill — the work decomposition fixes which
/// task computes which cell, never the schedule.
std::vector<double> DistanceMatrix(
    const std::vector<core::SemanticTrajectory>& trajectories,
    const TrajectoryDistance& distance, const DistanceMatrixOptions& options);

/// The sequential fill (options all default).
std::vector<double> DistanceMatrix(
    const std::vector<core::SemanticTrajectory>& trajectories,
    const TrajectoryDistance& distance);

}  // namespace sitm::mining

