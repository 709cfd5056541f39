#include "live/service.h"

#include <utility>

#include "live/ingest.h"

namespace sitm::live {

namespace {

HttpResponse CountResponse(const char* key, std::size_t count) {
  HttpResponse response;
  response.body =
      io::JsonValue(io::JsonValue::Object{
                        {key, static_cast<std::int64_t>(count)}})
          .Dump() +
      "\n";
  return response;
}

}  // namespace

LiveService::LiveService(LiveServiceOptions options)
    : options_(std::move(options)),
      builder_(options_.builder),
      store_(options_.store) {}

Status LiveService::IngestBody(std::string_view body, std::size_t* accepted) {
  SITM_ASSIGN_OR_RETURN(const std::vector<core::RawDetection> detections,
                        ParseDetectionBatch(body));
  if (accepted != nullptr) *accepted = detections.size();
  std::vector<core::SemanticTrajectory> finalized;
  {
    MutexLock lock(mutex_);
    SITM_RETURN_IF_ERROR(builder_.Ingest(detections, &finalized));
  }
  return store_.Append(std::move(finalized));
}

Status LiveService::FlushAll() {
  std::vector<core::SemanticTrajectory> finalized;
  {
    MutexLock lock(mutex_);
    SITM_RETURN_IF_ERROR(builder_.Drain(&finalized));
  }
  SITM_RETURN_IF_ERROR(store_.Append(std::move(finalized)));
  return store_.Flush();
}

io::JsonValue LiveService::StatsJson() const {
  IncrementalStats builder_stats;
  {
    MutexLock lock(mutex_);
    builder_stats = builder_.stats();
  }
  return RenderStats(builder_stats, store_.stats());
}

Result<storage::StoreSet> LiveService::Snapshot() const {
  return store_.Snapshot(options_.builder.builder.first_trajectory_id);
}

std::size_t LiveService::finalized_count() const {
  MutexLock lock(mutex_);
  return builder_.stats().finalized;
}

Status LiveService::Close() { return store_.Close(); }

void LiveService::RegisterRoutes(HttpServer* server) {
  server->Handle("POST", "/detections", [this](const HttpRequest& request) {
    std::size_t accepted = 0;
    const Status status = IngestBody(request.body, &accepted);
    if (!status.ok()) return ErrorResponse(status);
    return CountResponse("accepted", accepted);
  });
  server->Handle("POST", "/flush", [this](const HttpRequest&) {
    const Status status = FlushAll();
    if (!status.ok()) return ErrorResponse(status);
    return CountResponse("finalized", finalized_count());
  });
  server->Handle("GET", "/stats", [this](const HttpRequest&) {
    HttpResponse response;
    response.body = StatsJson().Pretty() + "\n";
    return response;
  });
  server->Handle("POST", "/shutdown", [server](const HttpRequest&) {
    server->Stop();
    HttpResponse response;
    response.body = "{\"stopping\": true}\n";
    return response;
  });
}

}  // namespace sitm::live
