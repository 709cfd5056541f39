// Live ingest server: the glue binary for the live subsystem and the
// CI smoke test's subject.
//
//   live_server serve [--port N] [--lateness SECONDS] [--dir DIR]
//     Starts the HTTP endpoint (prints "PORT=<n>" once bound) with the
//     LiveService routes — POST /detections, POST /flush, GET /stats,
//     POST /shutdown — plus GET /query, which this binary registers
//     itself: live/ must not depend on query/, so the query route is
//     built here on LiveService::Snapshot() and the query executor.
//
//   live_server batch <detections.json> [<query-string>]
//     The oracle: the same detection batch through the batch pipeline
//     and the same query in memory, printing the byte-identical JSON
//     answer the served /query endpoint returns — scripts/live_smoke.sh
//     diffs the two.
//
// Query string: projection=count|ids|trajectories (default count),
// object=<id>, cell=<id> (filters AND together).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "core/pipeline.h"
#include "io/json.h"
#include "live/http_server.h"
#include "live/ingest.h"
#include "live/service.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "sched/executor.h"

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

// ---- /query: parameter parsing and rendering, shared verbatim by the
// served route and the batch oracle.

Result<query::Query> QueryFromParams(
    const std::vector<std::pair<std::string, std::string>>& params) {
  query::Query q;
  q.where = query::All();
  q.projection = query::Projection::kCount;
  for (const auto& [key, value] : params) {
    if (key == "projection") {
      if (value == "count") {
        q.projection = query::Projection::kCount;
      } else if (value == "ids") {
        q.projection = query::Projection::kIds;
      } else if (value == "trajectories") {
        q.projection = query::Projection::kTrajectories;
      } else {
        return Status::InvalidArgument("unknown projection: " + value);
      }
    } else if (key == "object" || key == "cell") {
      // Every failure, out of range included, is the client's: 400.
      const Result<std::int64_t> id = ParseInt64(value);
      if (!id.ok() || *id < 0) {
        return Status::InvalidArgument("bad " + key + " id: " + value);
      }
      q.where = query::And(std::move(q.where),
                           key == "object"
                               ? query::ObjectIs(ObjectId(*id))
                               : query::InCell(CellId(*id)));
    } else {
      return Status::InvalidArgument("unknown query parameter: " + key);
    }
  }
  return q;
}

io::JsonValue RenderResult(const query::QueryResult& result) {
  io::JsonValue::Object doc;
  switch (result.projection) {
    case query::Projection::kCount:
      doc.emplace_back("projection", "count");
      doc.emplace_back("count", static_cast<std::int64_t>(result.count));
      break;
    case query::Projection::kIds: {
      doc.emplace_back("projection", "ids");
      io::JsonValue::Array ids;
      for (const TrajectoryId id : result.ids) {
        ids.emplace_back(static_cast<std::int64_t>(id.value()));
      }
      doc.emplace_back("ids", std::move(ids));
      break;
    }
    default: {
      doc.emplace_back("projection", "trajectories");
      io::JsonValue::Array rows;
      for (const core::SemanticTrajectory& t : result.trajectories) {
        rows.emplace_back(io::JsonValue::Object{
            {"id", static_cast<std::int64_t>(t.id().value())},
            {"object", static_cast<std::int64_t>(t.object().value())},
            {"tuples", static_cast<std::int64_t>(t.trace().size())},
            {"start", t.start().ToString()},
            {"end", t.end().ToString()}});
      }
      doc.emplace_back("trajectories", std::move(rows));
      break;
    }
  }
  // The full-payload determinism check: byte-identical across the
  // live/batch paths whenever the results truly match.
  doc.emplace_back("fingerprint", result.Fingerprint());
  return doc;
}

int RunServe(int argc, char** argv) {
  int port = 0;
  std::int64_t lateness_seconds = 600;
  std::string directory = "live_segments";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = std::atoi(value().c_str());
    } else if (arg == "--lateness") {
      lateness_seconds = std::atoll(value().c_str());
    } else if (arg == "--dir") {
      directory = value();
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  sched::Executor executor(sched::Executor::DefaultConcurrency());

  // Graph-free configuration — arbitrary object/cell ids, no
  // enrichment. What matters for the smoke test is that serve and
  // batch mode configure the SAME semantics.
  live::LiveServiceOptions options;
  options.builder.allowed_lateness = Duration::Seconds(lateness_seconds);
  options.store.directory = directory;
  options.store.seal_trajectories = 128;
  options.store.compaction_fanin = 4;
  options.store.runner = &executor;
  live::LiveService service(options);

  live::HttpServer server(&executor);
  service.RegisterRoutes(&server);
  server.Handle("GET", "/query", [&service, &executor](
                                     const live::HttpRequest& request) {
    auto q = QueryFromParams(request.query_params);
    if (!q.ok()) return live::ErrorResponse(q.status());
    auto snapshot = service.Snapshot();
    if (!snapshot.ok()) return live::ErrorResponse(snapshot.status());
    query::ExecutorOptions exec_options;
    exec_options.executor = &executor;
    query::QueryExecutor query_executor{query::QueryContext{}, exec_options};
    auto result = query_executor.Run(*q, *snapshot);
    if (!result.ok()) return live::ErrorResponse(result.status());
    live::HttpResponse response;
    response.body = RenderResult(*result).Dump();
    return response;
  });

  Check(server.Bind(port));
  std::printf("PORT=%d\n", server.port());
  std::fflush(stdout);
  const Status served = server.Serve();
  Check(service.Close());
  Check(served);
  return 0;
}

int RunBatch(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: live_server batch <detections.json> "
                 "[<query-string>]\n";
    return 2;
  }
  std::ifstream in(argv[2], std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << argv[2] << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<core::RawDetection> detections =
      Unwrap(live::ParseDetectionBatch(buffer.str()));

  core::BatchPipeline pipeline{core::PipelineOptions{}};
  const std::vector<core::SemanticTrajectory> trajectories =
      Unwrap(pipeline.Run(detections));

  const query::Query q = Unwrap(
      QueryFromParams(live::ParseQueryString(argc > 3 ? argv[3] : "")));
  query::QueryExecutor query_executor{query::QueryContext{}};
  const query::QueryResult result = Unwrap(query_executor.Run(q, trajectories));
  std::printf("%s\n", RenderResult(result).Dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return RunServe(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "batch") == 0) {
    return RunBatch(argc, argv);
  }
  std::cerr << "usage: live_server serve [--port N] [--lateness SECONDS] "
               "[--dir DIR]\n       live_server batch <detections.json> "
               "[<query-string>]\n";
  return 2;
}
