// S1 — streaming ingest through the live subsystem: out-of-order
// detection batches pushed through the IncrementalBuilder (watermark
// finalization) into rolling SegmentStore segments with background
// compaction. Reports sustained detections/s, the open-state memory
// high-water marks (the builder's peaks are the bounded-memory oracle),
// and the compaction write amplification, then self-checks that
//   (a) the arrival order loses nothing (late_dropped == 0),
//   (b) the open state stayed bounded by the shuffle window and the
//       visitors active around the watermark, not by the stream
//       length or the visitor count, and
//   (c) a snapshot query over live segments counts exactly the
//       finalized trajectories.
// Any violation exits 1 — the bench IS the regression gate.
//
// The run ends with CompactAll(), and the single surviving segment is
// copied to BENCH_s1_stream.evst: a deterministic artifact (fixed
// simulator and shuffle seeds, deterministic builder and encoder) that
// scripts/check_store_sizes.py pins against bench/baseline.
//
// The two timings split what perfbench's live_http measures as one:
// the builder alone and the builder with sealing and compaction. Their
// ratio is the cost of the store write. live_http times snapshots and
// store-set queries.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "bench/bench_util.h"
#include "core/builder.h"
#include "core/enrichment.h"
#include "live/incremental_builder.h"
#include "live/segment_store.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "sched/executor.h"

namespace {

using namespace sitm;         // NOLINT
using namespace sitm::bench;  // NOLINT

// Stream shape: how long a detection's delivery may lag its event time
// (transport jitter — the disorder a watermark absorbs), how many
// arrive per ingest batch, and how often segments seal.
constexpr std::int64_t kJitterSeconds = 600;
constexpr std::size_t kIngestBatch = 256;
constexpr std::size_t kSealTrajectories = 48;

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap map = Unwrap(louvre::LouvreMap::Build());
  return map;
}

const indoor::Nrg& ZoneGraph() {
  return Map().graph().FindLayer(Map().zone_layer()).value()->graph();
}

// The fixed-seed out-of-order arrival stream: simulated Louvre visits,
// each detection delivered at its event time plus up to kJitterSeconds
// of transport lag — time-bounded disorder, the regime a watermark
// with finite allowed lateness is built for. (A position-bounded
// shuffle would be wrong here: the dataset spans weeks with long idle
// gaps, so even a small positional window implies unbounded lateness.)
const std::vector<core::RawDetection>& Arrival() {
  static const std::vector<core::RawDetection> arrival = [] {
    louvre::SimulatorOptions options;
    options.num_visitors = 500;
    options.num_returning = 200;
    options.num_third_visits = 83;
    options.num_detections = (options.num_visitors + options.num_returning +
                              options.num_third_visits) *
                             10;
    options.seed = 20190326;  // EDBT'19
    louvre::VisitSimulator simulator(&Map(), options);
    std::vector<core::RawDetection> detections =
        Unwrap(simulator.Generate()).ToRawDetections();
    Rng rng(0x51C0FFEE);
    std::vector<std::pair<Timestamp, std::size_t>> delivery;
    delivery.reserve(detections.size());
    for (std::size_t i = 0; i < detections.size(); ++i) {
      delivery.emplace_back(
          detections[i].start +
              Duration::Seconds(rng.NextInt(0, kJitterSeconds)),
          i);
    }
    std::sort(delivery.begin(), delivery.end(),
              [&detections](const std::pair<Timestamp, std::size_t>& a,
                            const std::pair<Timestamp, std::size_t>& b) {
                if (a.first != b.first) return a.first < b.first;
                const core::RawDetection& da = detections[a.second];
                const core::RawDetection& db = detections[b.second];
                if (da.start != db.start) return da.start < db.start;
                if (da.end != db.end) return da.end < db.end;
                return da.object.value() < db.object.value();
              });
    std::vector<core::RawDetection> ordered;
    ordered.reserve(detections.size());
    for (const auto& [when, index] : delivery) ordered.push_back(detections[index]);
    return ordered;
  }();
  return arrival;
}

// The smallest allowed lateness admitting every detection in Arrival():
// the worst event-time regression plus one second (admission is strict).
Duration StreamLateness() {
  Duration worst = Duration::Seconds(0);
  bool any = false;
  Timestamp prefix_max;
  for (const core::RawDetection& d : Arrival()) {
    if (any && d.start < prefix_max) worst = std::max(worst, prefix_max - d.start);
    if (!any || d.start > prefix_max) {
      prefix_max = d.start;
      any = true;
    }
  }
  return worst + Duration::Seconds(1);
}

// The most distinct objects with a detection meeting one event-time
// window of length `window`. Detection [s, e] meets [t, t + window] iff
// t lies in [s - window, max(s, e)], so this is the deepest overlap of
// those t-ranges, merged per object.
std::size_t MaxObjectsInWindow(
    const std::vector<core::RawDetection>& detections, Duration window) {
  std::map<ObjectId, std::vector<std::pair<Timestamp, Timestamp>>> ranges;
  for (const core::RawDetection& d : detections) {
    ranges[d.object].emplace_back(d.start - window, std::max(d.start, d.end));
  }
  // (t, 0) opens a range and (t, 1) closes one; opens sort first, so
  // ranges that touch overlap.
  std::vector<std::pair<Timestamp, int>> events;
  for (auto& [object, object_ranges] : ranges) {
    std::sort(object_ranges.begin(), object_ranges.end());
    Timestamp lo = object_ranges.front().first;
    Timestamp hi = object_ranges.front().second;
    for (const auto& [from, to] : object_ranges) {
      if (hi < from) {
        events.emplace_back(lo, 0);
        events.emplace_back(hi, 1);
        lo = from;
      }
      hi = std::max(hi, to);
    }
    events.emplace_back(lo, 0);
    events.emplace_back(hi, 1);
  }
  std::sort(events.begin(), events.end());
  std::size_t depth = 0, deepest = 0;
  for (const auto& [t, kind] : events) {
    if (kind == 0) {
      deepest = std::max(deepest, ++depth);
    } else {
      --depth;
    }
  }
  return deepest;
}

live::IncrementalOptions StreamOptions() {
  live::IncrementalOptions options;
  options.builder.graph = &ZoneGraph();
  options.rules = {
      core::AnnotateStopsAndMoves(Duration::Minutes(5),
                                  {core::AnnotationKind::kBehavior, "stop"},
                                  {core::AnnotationKind::kBehavior, "move"}),
  };
  options.infer_hidden_passages = true;
  options.allowed_lateness = StreamLateness();
  return options;
}

// Streams Arrival() through a fresh builder in kIngestBatch slices,
// handing every finalized batch to `sink`. Returns the final stats.
template <typename Sink>
live::IncrementalStats StreamThrough(Sink&& sink) {
  live::IncrementalBuilder builder(StreamOptions());
  const std::vector<core::RawDetection>& arrival = Arrival();
  std::vector<core::SemanticTrajectory> finalized;
  for (std::size_t i = 0; i < arrival.size(); i += kIngestBatch) {
    const std::size_t end = std::min(arrival.size(), i + kIngestBatch);
    finalized.clear();
    Check(builder.Ingest(
        std::vector<core::RawDetection>(
            arrival.begin() + static_cast<std::ptrdiff_t>(i),
            arrival.begin() + static_cast<std::ptrdiff_t>(end)),
        &finalized));
    sink(std::move(finalized));
  }
  finalized.clear();
  Check(builder.Drain(&finalized));
  sink(std::move(finalized));
  return builder.stats();
}

void RemoveTree(const std::string& directory) {
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) return;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") ::unlink((directory + "/" + name).c_str());
  }
  ::closedir(dir);
  ::rmdir(directory.c_str());
}

// Copies the single post-CompactAll segment out of `directory` to the
// stable artifact name the store-size baseline pins.
void ExportArtifact(const std::string& directory, const std::string& artifact) {
  DIR* dir = ::opendir(directory.c_str());
  Check(dir != nullptr ? Status::OK()
                       : Status::Internal("segment directory missing"));
  std::vector<std::string> segments;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".evst") == 0) {
      segments.push_back(directory + "/" + name);
    }
  }
  ::closedir(dir);
  Check(segments.size() == 1
            ? Status::OK()
            : Status::Internal("CompactAll left " +
                               std::to_string(segments.size()) + " segments"));
  std::ifstream in(segments.front(), std::ios::binary);
  std::ofstream out(artifact, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  Check(in.good() && out.good() ? Status::OK()
                                : Status::Internal("artifact copy failed"));
}

void Report() {
  Banner("S1", "streaming ingest: incremental builder + rolling segments "
               "(live subsystem end-to-end)");
  const std::vector<core::RawDetection>& arrival = Arrival();
  std::size_t distinct_objects = 0;
  {
    std::vector<std::int64_t> ids;
    for (const core::RawDetection& d : arrival) ids.push_back(d.object.value());
    std::sort(ids.begin(), ids.end());
    distinct_objects = static_cast<std::size_t>(
        std::unique(ids.begin(), ids.end()) - ids.begin());
  }
  std::printf("  stream: %zu detections, %zu objects, delivery jitter <= "
              "%llds, lateness %s, batch %zu\n",
              arrival.size(), distinct_objects,
              static_cast<long long>(kJitterSeconds),
              StreamLateness().ToString().c_str(), kIngestBatch);

  sched::Executor executor(sched::Executor::DefaultConcurrency());
  live::SegmentStoreOptions store_options;
  store_options.directory = "BENCH_s1_segments";
  store_options.seal_trajectories = kSealTrajectories;
  store_options.compaction_fanin = 4;
  store_options.runner = &executor;
  RemoveTree(store_options.directory);  // stale state from a prior run
  live::SegmentStore store(store_options);

  const auto ingest_start = std::chrono::steady_clock::now();
  const live::IncrementalStats stats = StreamThrough(
      [&store](std::vector<core::SemanticTrajectory> finalized) {
        Check(store.Append(std::move(finalized)));
      });
  Check(store.Flush());
  Check(store.Close());
  const double ingest_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ingest_start)
          .count();

  const live::SegmentStoreStats before = store.stats();
  const double amplification =
      before.logical_bytes == 0
          ? 0.0
          : static_cast<double>(before.written_bytes) /
                static_cast<double>(before.logical_bytes);
  Row("sustained ingest", "n/a",
      std::to_string(static_cast<std::size_t>(
          static_cast<double>(arrival.size()) / ingest_seconds)) +
          " detections/s");
  Row("finalized trajectories", "n/a", std::to_string(stats.finalized));
  Row("peak open objects", "bounded by active visitors",
      std::to_string(stats.peak_open_objects));
  Row("peak buffered detections", "bounded by lateness window",
      std::to_string(stats.peak_buffered_detections));
  Row("segments sealed / compactions", "n/a",
      std::to_string(before.segments) + " live, " +
          std::to_string(before.compactions) + " compactions (max level " +
          std::to_string(before.max_level) + ")");
  std::printf("  write amplification: %.2fx (%llu written / %llu logical "
              "bytes)\n",
              amplification,
              static_cast<unsigned long long>(before.written_bytes),
              static_cast<unsigned long long>(before.logical_bytes));

  // --- Self-checks: the bench doubles as the bounded-memory gate. ---
  // The lateness bound was computed to admit this exact arrival order.
  Check(stats.late_dropped == 0
            ? Status::OK()
            : Status::Internal("stream dropped admissible detections"));
  // Open state must scale with the disorder, never with the stream
  // length: everything buffered has start >= watermark = max_start −
  // lateness, so the peak is bounded by the densest lateness-long
  // event-time window (plus one ingest batch of admission slack). A
  // watermark that stops advancing would blow through this.
  const std::size_t buffer_bound = [&arrival] {
    std::vector<Timestamp> starts;
    starts.reserve(arrival.size());
    for (const core::RawDetection& d : arrival) starts.push_back(d.start);
    std::sort(starts.begin(), starts.end());
    const Duration lateness = StreamLateness();
    std::size_t densest = 0;
    std::size_t lo = 0;
    for (std::size_t hi = 0; hi < starts.size(); ++hi) {
      while (starts[hi] - starts[lo] > lateness) ++lo;
      densest = std::max(densest, hi - lo + 1);
    }
    return densest + kIngestBatch;
  }();
  Check(stats.peak_buffered_detections <= buffer_bound
            ? Status::OK()
            : Status::Internal(
                  "peak buffered detections " +
                  std::to_string(stats.peak_buffered_detections) +
                  " exceeds bound " + std::to_string(buffer_bound)));
  // The builder retires an object once nothing of it is buffered and
  // its trace has flushed, so every tracked object has a detection
  // meeting [W − session_gap, W + lateness]: the peak is bounded by the
  // most objects active in any (lateness + session_gap)-long window,
  // plus one ingest batch of new arrivals.
  const std::size_t object_bound =
      MaxObjectsInWindow(arrival, StreamLateness() +
                                      StreamOptions().builder.session_gap) +
      kIngestBatch;
  Check(stats.peak_open_objects <= object_bound
            ? Status::OK()
            : Status::Internal("peak open objects " +
                               std::to_string(stats.peak_open_objects) +
                               " exceeds bound " +
                               std::to_string(object_bound)));
  std::printf("  peak open objects %zu <= window bound %zu (%zu objects)\n",
              stats.peak_open_objects, object_bound, distinct_objects);
  // A snapshot over the live segments must count exactly the finalized
  // trajectories (canonical-id snapshot + store-set count query).
  {
    const storage::StoreSet snapshot =
        Unwrap(store.Snapshot(StreamOptions().builder.first_trajectory_id));
    query::Query count;
    count.where = query::All();
    count.projection = query::Projection::kCount;
    query::QueryExecutor query_executor{query::QueryContext{}};
    const query::QueryResult result = Unwrap(query_executor.Run(count, snapshot));
    Check(result.count == stats.finalized
              ? Status::OK()
              : Status::Internal("snapshot count " +
                                 std::to_string(result.count) +
                                 " != finalized " +
                                 std::to_string(stats.finalized)));
  }

  // Deterministic end state: everything merged into one segment, copied
  // out for the store-size baseline, scratch directory removed.
  Check(store.CompactAll());
  ExportArtifact(store_options.directory, "BENCH_s1_stream.evst");
  RemoveTree(store_options.directory);
  std::printf("  artifact: BENCH_s1_stream.evst (%llu bytes, single "
              "compacted segment)\n",
              static_cast<unsigned long long>(store.stats().segment_bytes));
}

// Builder-only throughput: the watermark/finalization path with no
// persistence. items/s in the JSON = detections/s.
void BM_StreamIngest(benchmark::State& state) {
  for (auto _ : state) {
    const live::IncrementalStats stats =
        StreamThrough([](std::vector<core::SemanticTrajectory>) {});
    benchmark::DoNotOptimize(stats.finalized);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(Arrival().size()));
}
BENCHMARK(BM_StreamIngest)->Unit(benchmark::kMillisecond);

// Full live path: builder + sealing + inline compaction (no runner, so
// the iteration timing is deterministic). Counters carry the memory
// high-water and amplification into BENCH_s1_streaming_ingest.json.
void BM_StreamIngestWithStore(benchmark::State& state) {
  const std::string directory = "BENCH_s1_bm_segments";
  live::IncrementalStats stats;
  live::SegmentStoreStats store_stats;
  for (auto _ : state) {
    RemoveTree(directory);
    live::SegmentStoreOptions options;
    options.directory = directory;
    options.seal_trajectories = kSealTrajectories;
    options.compaction_fanin = 4;
    live::SegmentStore store(options);
    stats = StreamThrough(
        [&store](std::vector<core::SemanticTrajectory> finalized) {
          Check(store.Append(std::move(finalized)));
        });
    Check(store.Flush());
    Check(store.Close());
    store_stats = store.stats();
  }
  RemoveTree(directory);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(Arrival().size()));
  state.counters["peak_open_objects"] =
      static_cast<double>(stats.peak_open_objects);
  state.counters["peak_buffered_detections"] =
      static_cast<double>(stats.peak_buffered_detections);
  state.counters["write_amplification"] =
      store_stats.logical_bytes == 0
          ? 0.0
          : static_cast<double>(store_stats.written_bytes) /
                static_cast<double>(store_stats.logical_bytes);
  state.counters["compactions"] = static_cast<double>(store_stats.compactions);
}
BENCHMARK(BM_StreamIngestWithStore)->Unit(benchmark::kMillisecond);

}  // namespace

SITM_BENCH_MAIN(Report)
