// LiveService: the HTTP-facing glue of the live subsystem, driven
// through its public entry points. Several ingest threads post
// consecutive slices of one time-sorted detection stream while a reader
// polls /stats and snapshots; the store orders its own seals, so the
// final answers must match the batch pipeline over the same detections.
// Over a real HttpServer, POST /detections answers a store failure 500
// and a malformed body 400.
#include "live/service.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/mutex.h"
#include "base/task_runner.h"
#include "core/enrichment.h"
#include "core/pipeline.h"
#include "io/json.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "sched/executor.h"

namespace sitm::live {
namespace {

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap* map = [] {
    auto result = louvre::LouvreMap::Build();
    EXPECT_TRUE(result.ok()) << result.status();
    return new louvre::LouvreMap(std::move(result).value());
  }();
  return *map;
}

const indoor::Nrg& ZoneGraph() {
  return Map().graph().FindLayer(Map().zone_layer()).value()->graph();
}

/// The simulated visits, sorted by start time: one time-sorted stream.
std::vector<core::RawDetection> SortedDetections(int visitors,
                                                 std::uint64_t seed) {
  louvre::SimulatorOptions options;
  options.num_visitors = visitors;
  options.num_returning = visitors * 2 / 5;
  options.num_third_visits = visitors / 6;
  options.num_detections =
      (visitors + options.num_returning + options.num_third_visits) * 5;
  options.seed = seed;
  louvre::VisitSimulator simulator(&Map(), options);
  auto dataset = simulator.Generate();
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  std::vector<core::RawDetection> detections = dataset->ToRawDetections();
  std::sort(detections.begin(), detections.end(),
            [](const core::RawDetection& a, const core::RawDetection& b) {
              return std::make_tuple(a.start, a.object.value(), a.end,
                                     a.cell.value()) <
                     std::make_tuple(b.start, b.object.value(), b.end,
                                     b.cell.value());
            });
  return detections;
}

core::PipelineOptions BatchOptions() {
  core::PipelineOptions options;
  options.builder.graph = &ZoneGraph();
  options.rules = {
      core::AnnotateStopsAndMoves(Duration::Minutes(5),
                                  {core::AnnotationKind::kBehavior, "stop"},
                                  {core::AnnotationKind::kBehavior, "move"}),
      core::AnnotateFinalExit(Map().exit_zones(),
                              {core::AnnotationKind::kGoal, "leaving"}),
  };
  options.infer_hidden_passages = true;
  return options;
}

/// One POST /detections body.
std::string Body(const std::vector<core::RawDetection>& detections,
                 std::size_t begin, std::size_t end) {
  io::JsonValue::Array rows;
  for (std::size_t i = begin; i < end; ++i) {
    const core::RawDetection& d = detections[i];
    rows.push_back(io::JsonValue::Object{
        {"object", d.object.value()},
        {"cell", d.cell.value()},
        {"start", d.start.seconds_since_epoch()},
        {"end", d.end.seconds_since_epoch()}});
  }
  return io::JsonValue(std::move(rows)).Dump();
}

std::int64_t StatsField(const io::JsonValue& stats, const char* section,
                        const char* key) {
  const Result<const io::JsonValue*> part = stats.Get(section);
  if (!part.ok()) return -1;
  const Result<const io::JsonValue*> field = (*part)->Get(key);
  if (!field.ok()) return -1;
  return (*field)->AsInt().value_or(-1);
}

// Four ingest threads pull consecutive batches of one time-sorted stream
// from a shared counter, so each posts its own disjoint slices. A batch
// is posted only once every batch kIngesters or more behind it has
// been, so no batch kIngesters or more ahead of it is posted first, and
// a lateness covering kIngesters + 1 batch spans drops nothing.
TEST(LiveServiceTest, ConcurrentIngestMatchesTheBatchPipeline) {
  constexpr std::size_t kIngesters = 4;
  constexpr std::size_t kBatch = 25;
  const std::vector<core::RawDetection> detections = SortedDetections(240, 31);
  const std::size_t batches = (detections.size() + kBatch - 1) / kBatch;
  ASSERT_GT(batches, 4 * kIngesters);
  std::vector<std::string> bodies;
  Duration lateness = Duration::Seconds(0);
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t begin = b * kBatch;
    bodies.push_back(
        Body(detections, begin, std::min(detections.size(), begin + kBatch)));
    // The start-time span of kIngesters + 1 consecutive batches.
    const std::size_t last = std::min(detections.size(),
                                      begin + (kIngesters + 1) * kBatch) - 1;
    lateness = std::max(lateness, detections[last].start -
                                      detections[begin].start);
  }

  sched::Executor pool(2);
  LiveServiceOptions options;
  static_cast<core::StageOptions&>(options.builder) = BatchOptions();
  options.builder.allowed_lateness = lateness + Duration::Seconds(1);
  options.store.directory = ::testing::TempDir() + "live_service_ingest";
  std::filesystem::remove_all(options.store.directory);
  options.store.seal_trajectories = 4;
  options.store.compaction_fanin = 2;
  options.store.runner = &pool;
  LiveService service(options);

  std::atomic<std::size_t> next{0};
  Mutex window_mutex;
  CondVar window_moved;
  std::vector<bool> posted(batches, false);
  std::size_t posted_prefix = 0;  // guarded by window_mutex
  std::atomic<std::size_t> ingesting{kIngesters};
  std::atomic<int> ingest_failures{0};
  std::atomic<int> reader_failures{0};
  std::atomic<int> reads{0};

  const auto ingest = [&] {
    for (std::size_t b = next.fetch_add(1); b < batches;
         b = next.fetch_add(1)) {
      {
        MutexLock lock(window_mutex);
        while (posted_prefix + kIngesters <= b) window_moved.Wait(lock);
      }
      std::size_t accepted = 0;
      if (!service.IngestBody(bodies[b], &accepted).ok() || accepted == 0) {
        ingest_failures.fetch_add(1);
      }
      MutexLock lock(window_mutex);
      posted[b] = true;
      while (posted_prefix < batches && posted[posted_prefix]) {
        ++posted_prefix;
      }
      window_moved.NotifyAll();
    }
    ingesting.fetch_sub(1);
  };
  const auto read = [&] {
    std::uint64_t seen = 0;
    do {
      const io::JsonValue stats = service.StatsJson();
      const Result<storage::StoreSet> snapshot = service.Snapshot();
      if (StatsField(stats, "store", "segments") < 0 || !snapshot.ok() ||
          !snapshot->Validate().ok() || snapshot->TotalTrajectories() < seen) {
        reader_failures.fetch_add(1);
      } else {
        seen = snapshot->TotalTrajectories();
      }
      reads.fetch_add(1);
    } while (ingesting.load() > 0);
  };
  std::vector<Task> tasks(kIngesters, Task{"test/ingest", ingest});
  // The reader holds one of the kIngesters + 2 threads; every ingest
  // task still gets one.
  tasks.push_back({"test/reader", read});
  sched::Executor threads(kIngesters + 1);
  ASSERT_TRUE(threads.Run(std::move(tasks)).ok());
  EXPECT_EQ(ingest_failures.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(reads.load(), 0);

  ASSERT_TRUE(service.FlushAll().ok());
  ASSERT_TRUE(service.Close().ok());
  const io::JsonValue stats = service.StatsJson();
  EXPECT_EQ(StatsField(stats, "builder", "late_dropped"), 0);
  EXPECT_EQ(StatsField(stats, "builder", "records_in"),
            static_cast<std::int64_t>(detections.size()));
  EXPECT_EQ(StatsField(stats, "store", "pending_trajectories"), 0);
  EXPECT_GT(StatsField(stats, "store", "compactions"), 0);

  core::BatchPipeline batch(BatchOptions());
  auto reference = batch.Run(detections);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_FALSE(reference->empty());
  EXPECT_EQ(service.finalized_count(), reference->size());
  query::Query q;
  q.where = query::All();
  q.projection = query::Projection::kTrajectories;
  const query::QueryExecutor executor{query::QueryContext{}};
  auto snapshot = service.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  auto live = executor.Run(q, *snapshot);
  ASSERT_TRUE(live.ok()) << live.status();
  auto expected = executor.Run(q, *reference);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(live->Fingerprint(), expected->Fingerprint());
}

struct HttpAnswer {
  int status = -1;  // -1: the server closed without answering
  std::string body;
};

/// One POST over loopback, read until the server closes.
HttpAnswer Post(int port, const std::string& path, const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "POST " + path + " HTTP/1.1\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" +
                              body;
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  for (ssize_t n; (n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0;) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  HttpAnswer answer;
  const std::size_t split = response.find("\r\n\r\n");
  if (response.size() < 12 || split == std::string::npos) return answer;
  answer.status = std::stoi(response.substr(9, 3));  // "HTTP/1.1 NNN"
  answer.body = response.substr(split + 4);
  return answer;
}

bool IsJsonError(const std::string& body) {
  const Result<io::JsonValue> doc = io::JsonValue::Parse(body);
  if (!doc.ok()) return false;
  const Result<const io::JsonValue*> error = doc->Get("error");
  return error.ok() && (*error)->is_string();
}

// The one Status->HTTP rule on POST /detections: a store that cannot
// seal is the server's failure (500), after the body was applied; a
// malformed body is the client's (400), with nothing applied. What the
// 500 request finalized stays pending, and a /flush once the fault is
// gone seals it.
TEST(LiveServiceTest, StoreFailureAnswers500AndMalformedBody400) {
  LiveServiceOptions options;
  options.store.directory = ::testing::TempDir() + "live_service_http_" +
                            std::to_string(::getpid());
  std::filesystem::remove_all(options.store.directory);
  options.store.seal_trajectories = 1;
  LiveService service(options);
  sched::Executor executor(2);  // one worker serves, one answers
  HttpServer server(&executor);
  service.RegisterRoutes(&server);
  ASSERT_TRUE(server.Bind(0).ok());
  const int port = server.port();
  Status served;
  // Serve() holds a worker until Stop(); no ASSERT may return before
  // Shutdown() has waited it out.
  executor.Submit(Task{"test/serve", [&] { served = server.Serve(); }});

  // Nothing finalizes yet, so nothing needs the store.
  EXPECT_EQ(Post(port, "/detections",
                 R"([{"object": 1, "cell": 10, "start": 1000, "end": 1100},
                     {"object": 2, "cell": 11, "start": 1000, "end": 1200}])")
                .status,
            200);
  EXPECT_EQ(service.finalized_count(), 0u);

  // A regular file where the segment directory belongs: no seal can
  // succeed. Object 3 moves the watermark past objects 1 and 2, so
  // their trajectories finalize and the seal they trigger fails.
  { std::ofstream(options.store.directory) << "not a directory"; }
  const HttpAnswer failed = Post(
      port, "/detections",
      R"([{"object": 3, "cell": 10, "start": 100000, "end": 100100}])");
  EXPECT_EQ(failed.status, 500);
  EXPECT_TRUE(IsJsonError(failed.body)) << failed.body;
  EXPECT_EQ(service.finalized_count(), 2u);

  const std::int64_t records_in =
      StatsField(service.StatsJson(), "builder", "records_in");
  const HttpAnswer truncated =
      Post(port, "/detections", R"([{"object": 4, "cell": 1)");
  EXPECT_EQ(truncated.status, 400);
  EXPECT_TRUE(IsJsonError(truncated.body)) << truncated.body;
  EXPECT_EQ(StatsField(service.StatsJson(), "builder", "records_in"),
            records_in);

  std::filesystem::remove(options.store.directory);
  EXPECT_EQ(Post(port, "/flush", "").status, 200);
  server.Stop();
  executor.Shutdown();
  EXPECT_TRUE(served.ok()) << served;
  ASSERT_TRUE(service.Close().ok());

  EXPECT_EQ(StatsField(service.StatsJson(), "store", "pending_trajectories"),
            0);
  auto snapshot = service.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  query::Query q;
  q.where = query::All();
  q.projection = query::Projection::kTrajectories;
  auto all = query::QueryExecutor{query::QueryContext{}}.Run(q, *snapshot);
  ASSERT_TRUE(all.ok()) << all.status();
  std::set<std::int64_t> objects;
  for (const core::SemanticTrajectory& t : all->trajectories) {
    objects.insert(t.object().value());
  }
  EXPECT_EQ(objects, (std::set<std::int64_t>{1, 2, 3}));
  std::filesystem::remove_all(options.store.directory);
}

}  // namespace
}  // namespace sitm::live
