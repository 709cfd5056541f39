#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/rng.h"
#include "mining/floor_switch.h"
#include "mining/profiling.h"
#include "mining/similarity.h"

namespace sitm::mining {
namespace {

using core::AnnotationKind;
using core::AnnotationSet;
using core::PresenceInterval;
using core::SemanticTrajectory;
using core::Trace;

PresenceInterval Pi(int cell, std::int64_t start, std::int64_t end) {
  PresenceInterval p;
  p.cell = CellId(cell);
  p.interval = *qsr::TimeInterval::Make(Timestamp(start), Timestamp(end));
  return p;
}

SemanticTrajectory Traj(int id, std::vector<PresenceInterval> intervals,
                        AnnotationSet annotations = AnnotationSet{
                            {AnnotationKind::kActivity, "visit"}}) {
  return SemanticTrajectory(TrajectoryId(id), ObjectId(id),
                            Trace(std::move(intervals)),
                            std::move(annotations));
}

std::vector<CellId> Seq(std::initializer_list<int> ids) {
  std::vector<CellId> out;
  for (int id : ids) out.push_back(CellId(id));
  return out;
}

TEST(EditDistanceTest, ClassicValues) {
  const CellCost unit = UnitCellCost();
  EXPECT_DOUBLE_EQ(EditDistance(Seq({}), Seq({}), unit), 0);
  EXPECT_DOUBLE_EQ(EditDistance(Seq({1, 2, 3}), Seq({1, 2, 3}), unit), 0);
  EXPECT_DOUBLE_EQ(EditDistance(Seq({1, 2, 3}), Seq({}), unit), 3);
  EXPECT_DOUBLE_EQ(EditDistance(Seq({1, 2, 3}), Seq({1, 9, 3}), unit), 1);
  EXPECT_DOUBLE_EQ(EditDistance(Seq({1, 2, 3}), Seq({2, 3}), unit), 1);
  EXPECT_DOUBLE_EQ(EditDistance(Seq({1, 2}), Seq({2, 1}), unit), 2);
}

TEST(EditDistanceTest, SimilarityNormalization) {
  const CellCost unit = UnitCellCost();
  EXPECT_DOUBLE_EQ(EditSimilarity(Seq({}), Seq({}), unit), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity(Seq({1, 2, 3, 4}), Seq({1, 2, 3, 4}), unit),
                   1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity(Seq({1, 2}), Seq({3, 4}), unit), 0.0);
  EXPECT_DOUBLE_EQ(EditSimilarity(Seq({1, 2, 3, 4}), Seq({1, 2, 3, 9}), unit),
                   0.75);
}

TEST(EditDistanceTest, SimilarityLengthGapEarlyExitSkipsTheDp) {
  // ||a| - |b|| >= max(|a|, |b|) pins similarity at 0 via the
  // length-difference lower bound; the substitution cost must never run.
  int cost_calls = 0;
  const CellCost counting = [&cost_calls](CellId a, CellId b) {
    ++cost_calls;
    return a == b ? 0.0 : 1.0;
  };
  EXPECT_DOUBLE_EQ(EditSimilarity(Seq({}), Seq({1, 2, 3}), counting), 0.0);
  EXPECT_DOUBLE_EQ(EditSimilarity(Seq({1, 2, 3}), Seq({}), counting), 0.0);
  EXPECT_EQ(cost_calls, 0);
}

TEST(EditDistanceBoundedTest, ExactWithinCutoffInfiniteBeyond) {
  const CellCost unit = UnitCellCost();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Distance 1 cases around the cutoff boundary.
  EXPECT_DOUBLE_EQ(
      EditDistanceBounded(Seq({1, 2, 3}), Seq({1, 9, 3}), unit, 1.0), 1.0);
  EXPECT_EQ(EditDistanceBounded(Seq({1, 2, 3}), Seq({1, 9, 3}), unit, 0.5),
            kInf);
  // Length-gap early exit: gap 3 > cutoff 2.
  EXPECT_EQ(EditDistanceBounded(Seq({1, 2, 3}), Seq({}), unit, 2.0), kInf);
  EXPECT_DOUBLE_EQ(EditDistanceBounded(Seq({1, 2, 3}), Seq({}), unit, 3.0),
                   3.0);
  // Identical sequences at cutoff 0.
  EXPECT_DOUBLE_EQ(EditDistanceBounded(Seq({5, 6}), Seq({5, 6}), unit, 0.0),
                   0.0);
  // Negative cutoff admits nothing.
  EXPECT_EQ(EditDistanceBounded(Seq({}), Seq({}), unit, -1.0), kInf);
}

TEST(EditDistanceBoundedTest, LengthGapEarlyExitSkipsTheDp) {
  int cost_calls = 0;
  const CellCost counting = [&cost_calls](CellId a, CellId b) {
    ++cost_calls;
    return a == b ? 0.0 : 1.0;
  };
  EXPECT_TRUE(std::isinf(
      EditDistanceBounded(Seq({1, 2, 3, 4, 5}), Seq({1}), counting, 2.0)));
  EXPECT_EQ(cost_calls, 0);
}

TEST(EditDistanceBoundedTest, AgreesWithFullDpOnRandomSequences) {
  // Randomized oracle across cutoffs, with a fractional substitution
  // cost so the band logic is exercised off the integer lattice.
  const CellCost fractional = [](CellId a, CellId b) {
    return a == b ? 0.0 : 0.4;
  };
  Rng rng(20260727);
  for (int round = 0; round < 400; ++round) {
    std::vector<CellId> a;
    std::vector<CellId> b;
    const int la = static_cast<int>(rng.NextInt(0, 10));
    const int lb = static_cast<int>(rng.NextInt(0, 10));
    for (int i = 0; i < la; ++i) a.push_back(CellId(rng.NextInt(1, 4)));
    for (int i = 0; i < lb; ++i) b.push_back(CellId(rng.NextInt(1, 4)));
    const double exact = EditDistance(a, b, fractional);
    for (const double cutoff : {0.0, 0.4, 1.0, 2.5, 4.0, 100.0,
                                std::numeric_limits<double>::infinity()}) {
      const double bounded = EditDistanceBounded(a, b, fractional, cutoff);
      if (exact <= cutoff) {
        ASSERT_DOUBLE_EQ(bounded, exact)
            << "round " << round << " cutoff " << cutoff;
      } else {
        ASSERT_TRUE(std::isinf(bounded))
            << "round " << round << " cutoff " << cutoff << " exact "
            << exact << " bounded " << bounded;
      }
    }
  }
}

TEST(EditDistanceBoundedTest, CutoffFromASimilarityAcceptsItsDistance) {
  // Top-k turns its k-th similarity s back into a distance cutoff
  // (1 - s) * L. Rounding must never push that cutoff below the
  // distance s came from: EditDistanceBounded at EditDistanceCutoff(s, L)
  // returns exactly EditDistance, bit for bit, so the similarity
  // recomputed from it is EditSimilarity's own value.
  const CellCost unit = UnitCellCost();
  const CellCost fractional = [](CellId a, CellId b) {
    return a == b ? 0.0 : 0.1 + 0.07 * static_cast<double>(
                                           (a.value() * 7 + b.value()) % 13);
  };
  // d = 1 of L = 3: the naive product lands just under 1.
  const double third = EditSimilarity(Seq({1, 2, 3}), Seq({1, 9, 3}), unit);
  EXPECT_LT((1.0 - third) * 3.0, 1.0);
  EXPECT_EQ(EditDistanceBounded(Seq({1, 2, 3}), Seq({1, 9, 3}), unit,
                                EditDistanceCutoff(third, 3)),
            1.0);
  Rng rng(20261017);
  int checked = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<CellId> a;
    std::vector<CellId> b;
    const int la = static_cast<int>(rng.NextInt(0, 40));
    const int lb = static_cast<int>(rng.NextInt(0, 40));
    for (int i = 0; i < la; ++i) a.push_back(CellId(rng.NextInt(1, 6)));
    for (int i = 0; i < lb; ++i) b.push_back(CellId(rng.NextInt(1, 6)));
    const std::size_t longest = std::max(a.size(), b.size());
    if (longest == 0) continue;
    for (const CellCost* cost : {&unit, &fractional}) {
      const double similarity = EditSimilarity(a, b, *cost);
      const double bounded = EditDistanceBounded(
          a, b, *cost, EditDistanceCutoff(similarity, longest));
      ASSERT_EQ(bounded, EditDistance(a, b, *cost)) << "round " << round;
      ASSERT_EQ(1.0 - bounded / static_cast<double>(longest), similarity)
          << "round " << round;
      ++checked;
    }
  }
  EXPECT_GT(checked, 3000);
}

TEST(EditDistanceTest, HierarchyCostSoftensSubstitutions) {
  // Two rooms under the same floor substitute at cost < 1; rooms under
  // different floors cost more.
  indoor::MultiLayerGraph g;
  indoor::SpaceLayer floors(LayerId(1), "Floor",
                            indoor::LayerKind::kTopographic);
  for (int f : {10, 11}) {
    ASSERT_TRUE(floors.mutable_graph()
                    .AddCell(indoor::CellSpace(CellId(f), "floor",
                                               indoor::CellClass::kFloor))
                    .ok());
  }
  indoor::SpaceLayer rooms(LayerId(0), "Room",
                           indoor::LayerKind::kTopographic);
  for (int r : {100, 101, 110}) {
    ASSERT_TRUE(rooms.mutable_graph()
                    .AddCell(indoor::CellSpace(CellId(r), "room",
                                               indoor::CellClass::kRoom))
                    .ok());
  }
  ASSERT_TRUE(g.AddLayer(std::move(floors)).ok());
  ASSERT_TRUE(g.AddLayer(std::move(rooms)).ok());
  for (auto [f, r] : {std::pair{10, 100}, {10, 101}, {11, 110}}) {
    ASSERT_TRUE(g.AddJointEdge(CellId(f), CellId(r),
                               qsr::TopologicalRelation::kCovers)
                    .ok());
  }
  const auto h = indoor::LayerHierarchy::Build(&g, {LayerId(1), LayerId(0)});
  ASSERT_TRUE(h.ok());
  const CellCost cost = HierarchyCellCost(&*h, /*max_distance=*/4);
  EXPECT_DOUBLE_EQ(cost(CellId(100), CellId(100)), 0.0);
  EXPECT_DOUBLE_EQ(cost(CellId(100), CellId(101)), 0.5);  // LCA = floor
  EXPECT_DOUBLE_EQ(cost(CellId(100), CellId(110)), 1.0);  // different roots
  // Same-floor swap is cheaper than a cross-floor swap in the induced
  // edit distance.
  const double same_floor =
      EditDistance(Seq({100}), Seq({101}), cost);
  const double cross_floor =
      EditDistance(Seq({100}), Seq({110}), cost);
  EXPECT_LT(same_floor, cross_floor);
}

TEST(LcsTest, LengthAndSimilarity) {
  EXPECT_EQ(LcsLength(Seq({1, 2, 3, 4}), Seq({2, 4})), 2u);
  EXPECT_EQ(LcsLength(Seq({1, 2, 3}), Seq({4, 5})), 0u);
  EXPECT_EQ(LcsLength(Seq({}), Seq({1})), 0u);
  EXPECT_DOUBLE_EQ(LcssSimilarity(Seq({1, 2, 3, 4}), Seq({2, 4})), 1.0);
  EXPECT_DOUBLE_EQ(LcssSimilarity(Seq({1, 2}), Seq({3, 4})), 0.0);
  EXPECT_DOUBLE_EQ(LcssSimilarity(Seq({}), Seq({})), 1.0);
}

TEST(JaccardTest, CellSets) {
  const SemanticTrajectory a = Traj(1, {Pi(1, 0, 10), Pi(2, 20, 30)});
  const SemanticTrajectory b = Traj(2, {Pi(2, 0, 10), Pi(3, 20, 30)});
  EXPECT_DOUBLE_EQ(JaccardCellSimilarity(a, b), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardCellSimilarity(a, a), 1.0);
}

TEST(DwellDistributionTest, DistanceProperties) {
  const SemanticTrajectory a = Traj(1, {Pi(1, 0, 100)});
  const SemanticTrajectory b = Traj(2, {Pi(2, 0, 100)});
  const SemanticTrajectory c = Traj(3, {Pi(1, 0, 50), Pi(2, 60, 110)});
  EXPECT_DOUBLE_EQ(DwellDistributionDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(DwellDistributionDistance(a, b), 2.0);  // disjoint
  EXPECT_NEAR(DwellDistributionDistance(a, c), 1.0, 1e-9);
  // Symmetry.
  EXPECT_DOUBLE_EQ(DwellDistributionDistance(a, c),
                   DwellDistributionDistance(c, a));
}

TEST(AnnotationSimilarityTest, JaccardOnAnnotations) {
  const SemanticTrajectory a =
      Traj(1, {Pi(1, 0, 10)},
           AnnotationSet{{AnnotationKind::kGoal, "visit"},
                         {AnnotationKind::kGoal, "buy"}});
  const SemanticTrajectory b =
      Traj(2, {Pi(1, 0, 10)},
           AnnotationSet{{AnnotationKind::kGoal, "visit"}});
  EXPECT_DOUBLE_EQ(AnnotationSimilarity(a, b), 0.5);
  EXPECT_DOUBLE_EQ(AnnotationSimilarity(a, a), 1.0);
}

TEST(DistanceMatrixTest, SymmetricZeroDiagonal) {
  const std::vector<SemanticTrajectory> trajectories = {
      Traj(1, {Pi(1, 0, 10)}), Traj(2, {Pi(2, 0, 10)}),
      Traj(3, {Pi(1, 0, 10), Pi(2, 20, 30)})};
  const std::vector<double> m =
      DistanceMatrix(trajectories, DwellDistributionDistance);
  const std::size_t n = trajectories.size();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(m[i * n + i], 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(m[i * n + j], m[j * n + i]);
    }
  }
}

TEST(FeaturesTest, ExtractedQuantities) {
  const SemanticTrajectory t =
      Traj(1, {Pi(1, 0, 600), Pi(2, 660, 1260), Pi(1, 1320, 1920)});
  const VisitFeatures f = ExtractFeatures(t, /*total_cells=*/10);
  EXPECT_DOUBLE_EQ(f.duration_minutes, 32.0);
  EXPECT_DOUBLE_EQ(f.num_cells, 2.0);
  EXPECT_DOUBLE_EQ(f.num_detections, 3.0);
  EXPECT_DOUBLE_EQ(f.mean_stay_minutes, 10.0);
  EXPECT_DOUBLE_EQ(f.coverage, 0.2);
  // Dwell split 2/3 vs 1/3: entropy = log2(3) - 2/3 bits.
  EXPECT_NEAR(f.dwell_entropy, 0.9183, 1e-3);
}

TEST(FeaturesTest, EmptyTrajectory) {
  const SemanticTrajectory t(TrajectoryId(1), ObjectId(1), Trace{},
                             AnnotationSet{{AnnotationKind::kGoal, "g"}});
  const VisitFeatures f = ExtractFeatures(t, 10);
  EXPECT_DOUBLE_EQ(f.num_detections, 0.0);
}

TEST(StyleTest, FourQuadrants) {
  // ant: wide & slow; fish: narrow & quick; grasshopper: narrow & slow;
  // butterfly: wide & quick.
  VisitFeatures f;
  f.coverage = 0.8;
  f.mean_stay_minutes = 10;
  EXPECT_EQ(ClassifyStyle(f, 0.5, 5), VisitorStyle::kAnt);
  f.coverage = 0.2;
  f.mean_stay_minutes = 2;
  EXPECT_EQ(ClassifyStyle(f, 0.5, 5), VisitorStyle::kFish);
  f.mean_stay_minutes = 10;
  EXPECT_EQ(ClassifyStyle(f, 0.5, 5), VisitorStyle::kGrasshopper);
  f.coverage = 0.8;
  f.mean_stay_minutes = 2;
  EXPECT_EQ(ClassifyStyle(f, 0.5, 5), VisitorStyle::kButterfly);
  EXPECT_EQ(VisitorStyleName(VisitorStyle::kAnt), "ant");
  EXPECT_EQ(VisitorStyleName(VisitorStyle::kButterfly), "butterfly");
}

TEST(KMedoidsTest, SeparatesObviousClusters) {
  // Two tight groups on a line: {0, 1, 2} and {100, 101, 102}.
  const std::vector<double> points = {0, 1, 2, 100, 101, 102};
  const std::size_t n = points.size();
  std::vector<double> matrix(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      matrix[i * n + j] = std::abs(points[i] - points[j]);
    }
  }
  Rng rng(7);
  const auto result = KMedoids(matrix, n, 2, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->assignment[0], result->assignment[1]);
  EXPECT_EQ(result->assignment[0], result->assignment[2]);
  EXPECT_EQ(result->assignment[3], result->assignment[4]);
  EXPECT_EQ(result->assignment[3], result->assignment[5]);
  EXPECT_NE(result->assignment[0], result->assignment[3]);
  EXPECT_LE(result->total_cost, 4.0);
}

TEST(KMedoidsTest, ValidatesArguments) {
  Rng rng(1);
  EXPECT_FALSE(KMedoids({}, 0, 1, &rng).ok());
  EXPECT_FALSE(KMedoids({0.0}, 1, 2, &rng).ok());
  EXPECT_FALSE(KMedoids({0.0, 1.0}, 2, 1, &rng).ok());  // size != n*n
  EXPECT_FALSE(KMedoids({0.0}, 1, 1, nullptr).ok());
}

TEST(KMedoidsTest, DeterministicPerSeed) {
  const std::size_t n = 5;
  std::vector<double> matrix(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      matrix[i * n + j] = std::abs(static_cast<double>(i) - double(j));
    }
  }
  Rng rng_a(3);
  Rng rng_b(3);
  const auto a = KMedoids(matrix, n, 2, &rng_a);
  const auto b = KMedoids(matrix, n, 2, &rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_EQ(a->medoids, b->medoids);
}

}  // namespace
}  // namespace sitm::mining
