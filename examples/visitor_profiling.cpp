// Visitor profiling: semantic similarity metrics + clustering on
// simulated Louvre visits — the paper's announced future work ("we will
// next focus on ... proposing semantic similarity metrics for
// trajectories (e.g. for visitor profiling)"), implemented here on top
// of the SITM.
//
// Build & run:  cmake --build build && ./build/examples/visitor_profiling
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "sched/executor.h"
#include "core/builder.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "mining/profiling.h"
#include "mining/patterns.h"
#include "mining/similarity.h"

namespace {

using namespace sitm;  // NOLINT

void Check(const Status& status) {
  if (!status.ok()) {
    std::cerr << "FATAL: " << status << "\n";
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result) {
  Check(result.status());
  return std::move(result).value();
}

}  // namespace

int main() {
  // ---- 1. Simulated visits (a small, fast slice of the dataset).
  const louvre::LouvreMap map = Unwrap(louvre::LouvreMap::Build());
  louvre::SimulatorOptions sim_options;
  sim_options.num_visitors = 300;
  sim_options.num_returning = 90;
  sim_options.num_third_visits = 30;
  sim_options.num_detections = 2500;
  louvre::VisitSimulator simulator(&map, sim_options);
  louvre::VisitDataset dataset = Unwrap(simulator.Generate());
  dataset.FilterZeroDuration();
  core::TrajectoryBuilder builder;
  std::vector<core::SemanticTrajectory> visits =
      Unwrap(builder.Build(dataset.ToRawDetections()));
  // Keep substantial visits only.
  visits.erase(std::remove_if(visits.begin(), visits.end(),
                              [](const core::SemanticTrajectory& t) {
                                return t.trace().size() < 3;
                              }),
               visits.end());
  std::printf("profiling %zu visits\n\n", visits.size());

  // ---- 2. Rule-based styles from per-visit features (the four museum
  // visitor archetypes: ant, fish, grasshopper, butterfly).
  std::vector<mining::VisitFeatures> features;
  std::vector<double> coverages;
  std::vector<double> stays;
  for (const core::SemanticTrajectory& t : visits) {
    const mining::VisitFeatures f =
        mining::ExtractFeatures(t, map.zones().size());
    features.push_back(f);
    coverages.push_back(f.coverage);
    stays.push_back(f.mean_stay_minutes);
  }
  std::sort(coverages.begin(), coverages.end());
  std::sort(stays.begin(), stays.end());
  const double median_coverage = coverages[coverages.size() / 2];
  const double median_stay = stays[stays.size() / 2];
  std::size_t style_counts[4] = {0, 0, 0, 0};
  for (const mining::VisitFeatures& f : features) {
    ++style_counts[static_cast<int>(
        mining::ClassifyStyle(f, median_coverage, median_stay))];
  }
  std::printf("visitor styles (median splits: coverage %.2f, stay %.1f min):\n",
              median_coverage, median_stay);
  for (int s = 0; s < 4; ++s) {
    std::printf("  %-12s %4zu visits\n",
                std::string(mining::VisitorStyleName(
                    static_cast<mining::VisitorStyle>(s))).c_str(),
                style_counts[s]);
  }

  // ---- 3. Similarity-based clustering (k-medoids on a blended metric:
  // where the time went + which path was taken).
  const std::size_t n = std::min<std::size_t>(visits.size(), 150);
  const std::vector<core::SemanticTrajectory> sample(visits.begin(),
                                                     visits.begin() + n);
  const mining::TrajectoryDistance blended =
      [](const core::SemanticTrajectory& a,
         const core::SemanticTrajectory& b) {
        const double dwell = mining::DwellDistributionDistance(a, b) / 2.0;
        const double path = 1.0 - mining::LcssSimilarity(
                                      mining::CellSequenceOf(a),
                                      mining::CellSequenceOf(b));
        return 0.5 * dwell + 0.5 * path;
      };
  // Blocked parallel fill on a hardware-sized executor: byte-identical
  // to the sequential DistanceMatrix, just spread across cores.
  sched::Executor executor;
  mining::DistanceMatrixOptions matrix_options;
  matrix_options.executor = &executor;
  const std::vector<double> matrix =
      mining::DistanceMatrix(sample, blended, matrix_options);
  // Every run is traced: dump the matrix fill's spans (per-lane task
  // begin/end) for offline inspection — see the
  // "tracing a run" section of the README.
  const Status trace_status =
      executor.trace().WriteJson("visitor_profiling_trace.json");
  if (trace_status.ok()) {
    std::printf("\nwrote scheduler span trace (%zu spans) to "
                "visitor_profiling_trace.json\n",
                executor.trace().Spans().size());
  } else {
    std::cerr << "trace dump failed: " << trace_status << "\n";
  }
  Rng rng(2026);
  const mining::ClusteringResult clusters =
      Unwrap(mining::KMedoids(matrix, n, 4, &rng));
  std::printf("\nk-medoids (k=4) on %zu visits, total cost %.1f:\n", n,
              clusters.total_cost);
  for (std::size_t c = 0; c < clusters.medoids.size(); ++c) {
    std::size_t size = 0;
    for (std::size_t assignment : clusters.assignment) {
      if (assignment == c) ++size;
    }
    const core::SemanticTrajectory& medoid = sample[clusters.medoids[c]];
    const mining::VisitFeatures f =
        mining::ExtractFeatures(medoid, map.zones().size());
    std::printf(
        "  cluster %zu: %3zu visits; medoid visit #%lld: %.0f min, "
        "%.0f zones, mean stay %.1f min\n",
        c, size, static_cast<long long>(medoid.id().value()),
        f.duration_minutes, f.num_cells, f.mean_stay_minutes);
  }

  // ---- 4. Hierarchy-aware similarity: same-wing confusion is cheaper
  // than cross-wing confusion.
  const indoor::LayerHierarchy hierarchy = Unwrap(map.BuildHierarchy());
  const mining::CellCost cost =
      mining::HierarchyCellCost(&hierarchy, /*max_distance=*/6);
  const auto seq_a = mining::CellSequenceOf(sample[0]);
  const auto seq_b = mining::CellSequenceOf(sample[1]);
  std::printf(
      "\nhierarchy-aware vs flat edit similarity of two visits: "
      "%.2f vs %.2f\n",
      mining::EditSimilarity(seq_a, seq_b, cost),
      mining::EditSimilarity(seq_a, seq_b, mining::UnitCellCost()));
  std::printf("(the hierarchy cost discounts substitutions of zones that "
              "share a floor or wing)\n");
  return 0;
}
