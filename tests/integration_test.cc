// End-to-end pipeline tests: map -> simulate -> clean -> build -> infer
// -> project -> mine -> export, with cross-module invariants checked at
// every stage.
#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/episode.h"
#include "core/inference.h"
#include "core/projection.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "mining/choropleth.h"
#include "mining/floor_switch.h"
#include "mining/flow.h"
#include "mining/patterns.h"
#include "mining/profiling.h"
#include "mining/similarity.h"
#include "mining/stats.h"

namespace sitm {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto map = louvre::LouvreMap::Build();
    ASSERT_TRUE(map.ok()) << map.status();
    map_ = new louvre::LouvreMap(std::move(map).value());

    louvre::SimulatorOptions options;
    options.num_visitors = 200;
    options.num_returning = 60;
    options.num_third_visits = 20;
    options.num_detections = 1500;
    options.seed = 777;
    louvre::VisitSimulator simulator(map_, options);
    auto dataset = simulator.Generate();
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    louvre::VisitDataset cleaned = std::move(dataset).value();
    cleaned.FilterZeroDuration();
    dataset_ = new louvre::VisitDataset(std::move(cleaned));

    core::BuilderOptions builder_options;
    builder_options.graph =
        &map_->graph().FindLayer(map_->zone_layer()).value()->graph();
    core::TrajectoryBuilder builder(builder_options);
    auto visits = builder.Build(dataset_->ToRawDetections());
    ASSERT_TRUE(visits.ok()) << visits.status();
    visits_ = new std::vector<core::SemanticTrajectory>(
        std::move(visits).value());
  }

  static void TearDownTestSuite() {
    delete visits_;
    delete dataset_;
    delete map_;
  }

  static const louvre::LouvreMap* map_;
  static const louvre::VisitDataset* dataset_;
  static const std::vector<core::SemanticTrajectory>* visits_;
};

const louvre::LouvreMap* PipelineTest::map_ = nullptr;
const louvre::VisitDataset* PipelineTest::dataset_ = nullptr;
const std::vector<core::SemanticTrajectory>* PipelineTest::visits_ = nullptr;

TEST_F(PipelineTest, EveryBuiltTrajectoryIsStructurallyValid) {
  for (const core::SemanticTrajectory& t : *visits_) {
    ASSERT_TRUE(t.Validate().ok()) << t.id().value();
  }
}

TEST_F(PipelineTest, ErrorFilteringCreatesFig6GapsThatInferenceCloses) {
  // The simulator walks accessibility edges, but dropping zero-duration
  // detection errors removes steps — producing exactly the paper's
  // Fig. 6 situation: consecutive observed zones that are not adjacent,
  // whose intermediate passage must be inferred from topology.
  const indoor::Nrg& zones =
      map_->graph().FindLayer(map_->zone_layer()).value()->graph();
  int gappy_before = 0;
  int inserted = 0;
  int consistent_after = 0;
  int completed_count = 0;
  for (const core::SemanticTrajectory& t : *visits_) {
    if (!t.trace().ValidateAgainstGraph(zones).ok()) ++gappy_before;
    const auto result = core::InferHiddenPassages(t, zones);
    ASSERT_TRUE(result.ok()) << result.status();
    inserted += result->second.inserted;
    ++completed_count;
    if (result->second.ambiguous == 0 && result->second.disconnected == 0) {
      // With no ambiguity left, the completed trace must be fully
      // consistent with the accessibility graph.
      ASSERT_TRUE(result->first.trace().ValidateAgainstGraph(zones).ok())
          << t.id().value();
      ++consistent_after;
    }
  }
  EXPECT_GT(gappy_before, 0);
  EXPECT_GT(inserted, 0);
  EXPECT_GT(consistent_after, completed_count / 2);
}

TEST_F(PipelineTest, DroppedDetectionsCreateInferableGaps) {
  // Remove middle detections from a long visit and let topology-based
  // inference recover them (the Fig. 6 mechanism, exercised end to end).
  const indoor::Nrg& zones =
      map_->graph().FindLayer(map_->zone_layer()).value()->graph();
  int recovered = 0;
  int holes_made = 0;
  for (const core::SemanticTrajectory& t : *visits_) {
    if (t.trace().size() < 5) continue;
    // Drop every second interior tuple.
    core::Trace sparse;
    std::vector<CellId> dropped;
    for (std::size_t i = 0; i < t.trace().size(); ++i) {
      if (i % 2 == 1 && i + 1 < t.trace().size()) {
        dropped.push_back(t.trace().at(i).cell);
        continue;
      }
      sparse.Append(t.trace().at(i));
    }
    if (dropped.empty()) continue;
    holes_made += static_cast<int>(dropped.size());
    core::SemanticTrajectory gappy(t.id(), t.object(), std::move(sparse),
                                   t.annotations());
    const auto result = core::InferHiddenPassages(gappy, zones);
    ASSERT_TRUE(result.ok()) << result.status();
    recovered += result->second.inserted;
    if (holes_made > 200) break;
  }
  ASSERT_GT(holes_made, 0);
  // Many chains in the zone graph are unique paths, so a substantial
  // fraction must be recovered.
  EXPECT_GT(recovered, holes_made / 4);
}

TEST_F(PipelineTest, ProjectionToEveryHierarchyLevelStaysValid) {
  const auto h = map_->BuildHierarchy();
  ASSERT_TRUE(h.ok());
  const core::SemanticTrajectory& t = visits_->front();
  for (int level = louvre::kLevelZone; level >= louvre::kLevelMuseum;
       --level) {
    const auto projected = core::ProjectTrajectory(t, *h, level);
    ASSERT_TRUE(projected.ok()) << projected.status();
    EXPECT_TRUE(projected->Validate().ok());
    EXPECT_LE(projected->trace().size(), t.trace().size());
    EXPECT_EQ(projected->Span().seconds(), t.Span().seconds());
  }
  // At museum level every visit collapses to a single presence.
  const auto museum_level =
      core::ProjectTrajectory(t, *h, louvre::kLevelMuseum);
  ASSERT_TRUE(museum_level.ok());
  EXPECT_EQ(museum_level->trace().size(), 1u);
  EXPECT_EQ(museum_level->trace().at(0).cell,
            CellId(louvre::kMuseumCellId));
}

TEST_F(PipelineTest, MultiGranularityPatternsFromTheSameDataset) {
  // §3.2's promise: room-level and floor-level patterns from one
  // dataset. Zone-level sequences are longer than wing-level ones.
  const auto h = map_->BuildHierarchy();
  ASSERT_TRUE(h.ok());
  std::vector<std::vector<CellId>> zone_seqs;
  std::vector<std::vector<CellId>> wing_seqs;
  for (std::size_t i = 0; i < std::min<std::size_t>(visits_->size(), 100);
       ++i) {
    const core::SemanticTrajectory& t = (*visits_)[i];
    zone_seqs.push_back(mining::CellSequenceOf(t));
    const auto wings =
        core::ProjectTrajectory(t, *h, louvre::kLevelWing);
    ASSERT_TRUE(wings.ok());
    wing_seqs.push_back(mining::CellSequenceOf(*wings));
  }
  std::size_t zone_total = 0;
  std::size_t wing_total = 0;
  for (std::size_t i = 0; i < zone_seqs.size(); ++i) {
    zone_total += zone_seqs[i].size();
    wing_total += wing_seqs[i].size();
    EXPECT_LE(wing_seqs[i].size(), zone_seqs[i].size());
  }
  EXPECT_LT(wing_total, zone_total);
  mining::PatternOptions options;
  options.min_support = 5;
  options.max_length = 3;
  const auto zone_patterns = mining::MinePatterns(zone_seqs, options);
  const auto wing_patterns = mining::MinePatterns(wing_seqs, options);
  ASSERT_TRUE(zone_patterns.ok());
  ASSERT_TRUE(wing_patterns.ok());
  EXPECT_FALSE(zone_patterns->empty());
  EXPECT_FALSE(wing_patterns->empty());
}

TEST_F(PipelineTest, StopEpisodesAndSegmentationOnRealTrajectories) {
  for (const core::SemanticTrajectory& t : *visits_) {
    if (t.trace().size() < 4) continue;
    const std::vector<core::Episode> stops = core::ExtractMaximalEpisodes(
        t, core::StayAtLeast(Duration::Minutes(1)), "stop",
        core::AnnotationSet{{core::AnnotationKind::kBehavior, "stopping"}});
    for (const core::Episode& ep : stops) {
      EXPECT_TRUE(core::ValidateEpisode(
                      t, ep,
                      core::ForAllTuples(
                          core::StayAtLeast(Duration::Minutes(1))))
                      .ok());
    }
    break;
  }
}

TEST_F(PipelineTest, GapClassificationUsesExitZones) {
  int semantic = 0;
  int holes = 0;
  for (const core::SemanticTrajectory& t : *visits_) {
    for (const core::GapInfo& gap : core::ClassifyGaps(
             t.trace(), Duration::Minutes(5), map_->exit_zones())) {
      if (gap.kind == core::GapKind::kSemanticGap) {
        ++semantic;
      } else {
        ++holes;
      }
    }
  }
  // The simulator produces mostly continuous visits; any long pauses
  // are classified one way or the other without crashing.
  SUCCEED() << semantic << " semantic gaps, " << holes << " holes";
}

TEST_F(PipelineTest, FlowsChoroplethAndFloorSwitchingAgree) {
  const mining::FlowMatrix flows = mining::FlowMatrix::Build(*visits_);
  const mining::DatasetStats stats = mining::ComputeDatasetStats(*visits_);
  EXPECT_EQ(flows.total(), stats.num_transitions);
  const auto bins = mining::BuildChoropleth(
      *visits_,
      [&](CellId c) {
        return std::find(map_->ground_floor_zones().begin(),
                         map_->ground_floor_zones().end(),
                         c) != map_->ground_floor_zones().end();
      },
      nullptr);
  EXPECT_LE(bins.size(), 11u);
  std::size_t bin_total = 0;
  for (const auto& bin : bins) bin_total += bin.detections;
  EXPECT_LE(bin_total, stats.num_detections);
  const auto h = map_->BuildHierarchy();
  ASSERT_TRUE(h.ok());
  const auto floor_stats = mining::AnalyzeFloorSwitching(
      *visits_, *h, louvre::kLevelFloor);
  ASSERT_TRUE(floor_stats.ok());
  std::size_t histogram_total = 0;
  for (const auto& [switches, count] : floor_stats->switches_per_visit) {
    histogram_total += count;
  }
  EXPECT_EQ(histogram_total, visits_->size());
}

TEST_F(PipelineTest, ProfilingSplitsVisitorsIntoStyles) {
  std::vector<mining::VisitFeatures> features;
  std::vector<double> coverages;
  std::vector<double> stays;
  for (const core::SemanticTrajectory& t : *visits_) {
    const mining::VisitFeatures f = mining::ExtractFeatures(t, 52);
    features.push_back(f);
    coverages.push_back(f.coverage);
    stays.push_back(f.mean_stay_minutes);
  }
  std::sort(coverages.begin(), coverages.end());
  std::sort(stays.begin(), stays.end());
  const double median_coverage = coverages[coverages.size() / 2];
  const double median_stay = stays[stays.size() / 2];
  int counts[4] = {0, 0, 0, 0};
  for (const mining::VisitFeatures& f : features) {
    ++counts[static_cast<int>(
        mining::ClassifyStyle(f, median_coverage, median_stay))];
  }
  // Median-based splits necessarily populate several quadrants.
  int nonempty = 0;
  for (int c : counts) nonempty += c > 0 ? 1 : 0;
  EXPECT_GE(nonempty, 3);
}

TEST_F(PipelineTest, SimilarityMatrixOnRealVisits) {
  const std::size_t n = std::min<std::size_t>(visits_->size(), 20);
  const std::vector<core::SemanticTrajectory> sample(
      visits_->begin(), visits_->begin() + n);
  const std::vector<double> matrix =
      mining::DistanceMatrix(sample, mining::DwellDistributionDistance);
  Rng rng(5);
  const auto clusters = mining::KMedoids(matrix, n, 3, &rng);
  ASSERT_TRUE(clusters.ok()) << clusters.status();
  EXPECT_EQ(clusters->assignment.size(), n);
}

}  // namespace
}  // namespace sitm
