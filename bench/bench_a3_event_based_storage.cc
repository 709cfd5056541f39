// A3 — ablation of the §3.3 design decision "the SITM is event-based":
// a new tuple exists only when the cell or the semantic information
// changes. The alternative — periodic location sampling, the norm for
// GPS-style outdoor trajectories — stores one record per tick. The
// bench counts both representations over the simulated Louvre visits
// and reports the compression the event-based model buys, plus the
// fidelity it keeps (the representations describe identical movement).
//
// Since the EventStore landed this bench also measures the *persisted*
// ablation: the same data written as row-oriented CSV text, as an
// event-based trajectory store, and as a per-tick trajectory store (the
// same visits with one tuple per 30 s tick), with on-disk bytes for each
// and ingest MB/s and scan rows/s for the event-based store. Both store
// files are left behind (BENCH_a3_trajectories.evst,
// BENCH_a3_sampled.evst) for the CI store-size gate.
//
// Self-checks (exit 1 on failure): the 30 s ticks of every visit with
// two or more stays re-merge, through the builder, to the visit's
// original tuples; every per-tick trajectory validates;
// the per-tick store holds exactly the tick count the sampling table
// reports for 30 s; the event-based store is smaller than the per-tick
// one; its trajectories read back; and it holds <= 6.0 bytes per tuple.
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/builder.h"
#include "io/csv.h"
#include "louvre/dataset.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "storage/event_store.h"

namespace {

using namespace sitm;         // NOLINT
using namespace sitm::bench;  // NOLINT

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap map = Unwrap(louvre::LouvreMap::Build());
  return map;
}

const louvre::VisitDataset& Dataset() {
  static const louvre::VisitDataset dataset = [] {
    louvre::VisitSimulator simulator(&Map());
    louvre::VisitDataset d = Unwrap(simulator.Generate());
    d.FilterZeroDuration();
    return d;
  }();
  return dataset;
}

std::vector<core::SemanticTrajectory> Visits() {
  core::TrajectoryBuilder builder;
  return Unwrap(builder.Build(Dataset().ToRawDetections()));
}

// One periodic "sample" = (object, cell, tick): what a fixed-rate
// symbolic tracker would emit while the event-based trace stores one
// tuple per stay.
std::size_t SampledRecordCount(
    const std::vector<core::SemanticTrajectory>& visits,
    Duration sampling_period) {
  std::size_t records = 0;
  for (const core::SemanticTrajectory& t : visits) {
    for (const core::PresenceInterval& p : t.trace().intervals()) {
      records += 1 + static_cast<std::size_t>(p.duration().seconds() /
                                              sampling_period.seconds());
    }
  }
  return records;
}

// The per-tick representation of one visit materialized: one tuple
// [tick, min(tick + period - 1 s, end)] per `period` tick of every stay,
// what a fixed-rate tracker would log. Each tick keeps its stay's cell
// and annotations; only a stay's first tick keeps the transition that
// entered it. The ticks are SampledRecordCount's, one for one.
core::SemanticTrajectory SampledTrajectory(const core::SemanticTrajectory& t,
                                           Duration period) {
  std::vector<core::PresenceInterval> ticks;
  for (const core::PresenceInterval& p : t.trace().intervals()) {
    for (Timestamp tick = p.start(); tick <= p.end(); tick = tick + period) {
      core::PresenceInterval sample = p;
      sample.interval = Unwrap(qsr::TimeInterval::Make(
          tick,
          std::min(tick + Duration::Seconds(period.seconds() - 1), p.end())));
      if (tick != p.start()) {
        sample.transition = BoundaryId::Invalid();
        sample.transition_annotations = core::AnnotationSet{};
      }
      ticks.push_back(std::move(sample));
    }
  }
  return core::SemanticTrajectory(t.id(), t.object(),
                                  core::Trace(std::move(ticks)),
                                  t.annotations());
}

// Replays the `period` ticks of every visit with at least two stays
// through the builder as detections, and checks that each merges back
// to its visit: one trajectory with the same tuple count, and the same
// cell, start and end time per tuple.
Status RemergeSampledVisits(const std::vector<core::SemanticTrajectory>& visits,
                            Duration period) {
  core::BuilderOptions options;
  options.same_cell_merge_gap = Duration::Seconds(5);
  // Keeps a stay's final zero-length tick, which carries its end time.
  options.drop_zero_duration = false;
  core::TrajectoryBuilder builder(options);
  for (const core::SemanticTrajectory& t : visits) {
    if (t.trace().size() < 2) continue;
    const core::SemanticTrajectory ticks = SampledTrajectory(t, period);
    std::vector<core::RawDetection> sampled;
    for (const core::PresenceInterval& p : ticks.trace().intervals()) {
      sampled.emplace_back(t.object(), p.cell, p.start(), p.end());
    }
    SITM_ASSIGN_OR_RETURN(std::vector<core::SemanticTrajectory> rebuilt,
                          builder.Build(std::move(sampled)));
    const auto& original = t.trace().intervals();
    bool same = rebuilt.size() == 1 &&
                rebuilt.front().trace().size() == original.size();
    for (std::size_t i = 0; same && i < original.size(); ++i) {
      const core::PresenceInterval& r = rebuilt.front().trace().intervals()[i];
      same = r.cell == original[i].cell &&
             r.start() == original[i].start() && r.end() == original[i].end();
    }
    if (!same) {
      return Status::Internal("visit " + std::to_string(t.id().value()) +
                              ": sampled ticks do not re-merge to the "
                              "original tuples");
    }
  }
  return Status::OK();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void ReportStorage(const std::vector<core::SemanticTrajectory>& visits,
                   std::size_t event_tuples) {
  std::printf("\n  persisted ablation (same movement, three layouts):\n");

  // Row-oriented text baseline: the CSV the io/ module has always
  // written (raw detections, one text row per record).
  const std::string csv = Dataset().ToCsv();

  // Event-based trajectory store (kept on disk for CI).
  const std::string store_path = "BENCH_a3_trajectories.evst";
  storage::WriterOptions options;
  auto writer = Unwrap(storage::EventStoreWriter::Create(
      store_path, storage::StoreKind::kTrajectories, options));
  const auto ingest_start = std::chrono::steady_clock::now();
  Check(writer.Append(visits));
  Check(writer.Finish());
  const double ingest_seconds = SecondsSince(ingest_start);
  const storage::StoreStats stats = writer.stats();

  // Per-tick trajectory store: identical format, one tuple per 30 s
  // tick instead of one per event — the §3.3 alternative.
  const Duration period = Duration::Seconds(30);
  std::vector<core::SemanticTrajectory> sampled;
  sampled.reserve(visits.size());
  for (const core::SemanticTrajectory& t : visits) {
    sampled.push_back(SampledTrajectory(t, period));
    Check(sampled.back().Validate());
  }
  const std::string sampled_path = "BENCH_a3_sampled.evst";
  auto sampled_writer = Unwrap(storage::EventStoreWriter::Create(
      sampled_path, storage::StoreKind::kTrajectories, options));
  Check(sampled_writer.Append(sampled));
  Check(sampled_writer.Finish());
  const storage::StoreStats sampled_stats = sampled_writer.stats();
  Check(sampled_stats.rows == SampledRecordCount(visits, period)
            ? Status::OK()
            : Status::Internal("per-tick store rows differ from the 30 s "
                               "sample count"));

  std::printf("    %-34s %10s %14s %12s\n", "layout", "rows", "bytes",
              "bytes/row");
  auto row = [](const char* name, std::size_t rows, std::uint64_t bytes) {
    std::printf("    %-34s %10zu %14llu %12.1f\n", name, rows,
                static_cast<unsigned long long>(bytes),
                static_cast<double>(bytes) / static_cast<double>(rows));
  };
  row("CSV text (row-oriented detections)", Dataset().size(), csv.size());
  row("EventStore (event-based columnar)", event_tuples, stats.file_bytes);
  row("EventStore (per-tick sampled, 30 s)",
      static_cast<std::size_t>(sampled_stats.rows), sampled_stats.file_bytes);
  std::printf(
      "    event-based columnar vs CSV: %.1fx smaller; vs per-tick "
      "sampling: %.2fx smaller\n",
      static_cast<double>(csv.size()) /
          static_cast<double>(stats.file_bytes),
      static_cast<double>(sampled_stats.file_bytes) /
          static_cast<double>(stats.file_bytes));
  Check(stats.file_bytes < sampled_stats.file_bytes
            ? Status::OK()
            : Status::Internal("event-based store is not smaller than the "
                               "per-tick store (§3.3)"));

  // Ingest and scan wall-clock for the event store.
  const auto reader = Unwrap(storage::EventStoreReader::Open(store_path));
  const auto scan_start = std::chrono::steady_clock::now();
  const auto scanned = Unwrap(reader.ReadTrajectories());
  const double scan_seconds = SecondsSince(scan_start);
  std::printf(
      "    ingest %.1f MB/s (%zu tuples in %.3f s), scan %.0f rows/s "
      "(%s, %zu blocks)\n",
      Mb(stats.file_bytes) / ingest_seconds, event_tuples, ingest_seconds,
      static_cast<double>(event_tuples) / scan_seconds,
      reader.is_mapped() ? "mmap" : "read fallback", reader.num_blocks());
  Check(scanned.size() == visits.size()
            ? Status::OK()
            : Status::Internal("store roundtrip lost trajectories"));

  // The acceptance gate for the v3 format: LZ blocks must hold the
  // density at or below 6.0 bytes per tuple on this dataset (the
  // uncompressed v2 columns measured ~10).
  const double bytes_per_tuple = static_cast<double>(stats.file_bytes) /
                                 static_cast<double>(event_tuples);
  std::printf("    v3 store density (LZ blocks): %.2f bytes/tuple "
              "(gate: <= 6.0)\n",
              bytes_per_tuple);
  Check(bytes_per_tuple > 0.0 && bytes_per_tuple <= 6.0
            ? Status::OK()
            : Status::Internal("v3 store exceeds 6.0 bytes/tuple"));
}

void Report() {
  Banner("A3", "ablation: event-based tuples vs. fixed-rate sampling "
               "(§3.3 'the SITM is event-based')");
  const auto visits = Visits();
  std::size_t event_tuples = 0;
  Duration observed = Duration::Zero();
  for (const core::SemanticTrajectory& t : visits) {
    event_tuples += t.trace().size();
    observed = observed + t.trace().TotalPresence();
  }
  Row("event-based tuples", "one per cell/annotation change",
      std::to_string(event_tuples));
  Row("observed presence time", "n/a",
      std::to_string(observed.seconds() / 3600) + " h");
  std::printf("\n  %-22s %14s %18s\n", "sampling period", "records",
              "event-based ratio");
  for (const Duration period : {Duration::Seconds(1), Duration::Seconds(5),
                                Duration::Seconds(30), Duration::Minutes(1),
                                Duration::Minutes(5)}) {
    const std::size_t samples = SampledRecordCount(visits, period);
    std::printf("  every %-16s %14zu %17.1fx\n",
                period.ToString().c_str(), samples,
                static_cast<double>(samples) /
                    static_cast<double>(event_tuples));
  }
  std::printf(
      "  (both representations describe the same movement: a sampled\n"
      "   stream replayed through the builder merges back to the same\n"
      "   event tuples, since nothing changes between ticks)\n");

  // Check the equivalence claim on every visit of two or more stays:
  // its 30 s ticks, replayed as detections, must merge back to the
  // original tuples. A stay whose length is a multiple of 30 s ends in a
  // zero-length tick; the replay keeps it, so end times match too.
  const Status remerged = RemergeSampledVisits(visits, Duration::Seconds(30));
  Check(remerged);
  std::size_t multi_stay = 0;
  for (const core::SemanticTrajectory& t : visits) {
    if (t.trace().size() >= 2) ++multi_stay;
  }
  Row("sampled stream re-merged to tuples", "the original tuples",
      std::to_string(multi_stay) + " visits identical");

  ReportStorage(visits, event_tuples);
}

void BM_SampleExpansion(benchmark::State& state) {
  const auto visits = Visits();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SampledRecordCount(visits, Duration::Seconds(30)));
  }
}
BENCHMARK(BM_SampleExpansion)->Unit(benchmark::kMillisecond);

void BM_EventTupleScan(benchmark::State& state) {
  const auto visits = Visits();
  for (auto _ : state) {
    std::size_t total = 0;
    for (const core::SemanticTrajectory& t : visits) {
      total += t.trace().size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_EventTupleScan);

// --- Persisted-layout timings. Items = tuple rows; bytes = on-disk
// size, so google-benchmark reports both rows/s and MB/s.

std::size_t TupleCount(const std::vector<core::SemanticTrajectory>& visits) {
  std::size_t tuples = 0;
  for (const auto& t : visits) tuples += t.trace().size();
  return tuples;
}

void BM_EventStoreWriteTrajectories(benchmark::State& state) {
  const auto visits = Visits();
  const std::string path = "BENCH_a3_scratch.evst";
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto writer = Unwrap(storage::EventStoreWriter::Create(
        path, storage::StoreKind::kTrajectories));
    Check(writer.Append(visits));
    Check(writer.Finish());
    bytes = writer.stats().file_bytes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(TupleCount(visits)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_EventStoreWriteTrajectories)->Unit(benchmark::kMillisecond);

void BM_EventStoreReadTrajectories(benchmark::State& state) {
  const auto visits = Visits();
  const std::string path = "BENCH_a3_scratch.evst";
  auto writer = Unwrap(storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories));
  Check(writer.Append(visits));
  Check(writer.Finish());
  const auto reader = Unwrap(storage::EventStoreReader::Open(path));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(reader.ReadTrajectories()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(TupleCount(visits)));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(writer.stats().file_bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_EventStoreReadTrajectories)->Unit(benchmark::kMillisecond);

void BM_EventStoreScanObjectPushdown(benchmark::State& state) {
  const auto visits = Visits();
  const std::string path = "BENCH_a3_scratch.evst";
  storage::WriterOptions options;
  options.rows_per_block = 512;  // enough blocks for pruning to matter
  auto writer = Unwrap(storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, options));
  Check(writer.Append(visits));
  Check(writer.Finish());
  const auto reader = Unwrap(storage::EventStoreReader::Open(path));
  storage::ScanOptions scan;
  scan.objects = {visits[visits.size() / 2].object()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(reader.ReadTrajectories(scan)));
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_EventStoreScanObjectPushdown);

void BM_CsvWriteDetections(benchmark::State& state) {
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string csv = Dataset().ToCsv();
    bytes = csv.size();
    benchmark::DoNotOptimize(csv);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(Dataset().size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CsvWriteDetections)->Unit(benchmark::kMillisecond);

void BM_CsvReadDetections(benchmark::State& state) {
  const std::string csv = Dataset().ToCsv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(louvre::VisitDataset::FromCsv(csv)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(Dataset().size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(csv.size()));
}
BENCHMARK(BM_CsvReadDetections)->Unit(benchmark::kMillisecond);

}  // namespace

SITM_BENCH_MAIN(Report)
