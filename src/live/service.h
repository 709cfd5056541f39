#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.h"
#include "base/result.h"
#include "base/thread_annotations.h"
#include "io/json.h"
#include "live/http_server.h"
#include "live/incremental_builder.h"
#include "live/segment_store.h"
#include "storage/store_set.h"

namespace sitm::live {

struct LiveServiceOptions {
  IncrementalOptions builder;
  SegmentStoreOptions store;
};

/// \brief Glue between the HTTP endpoint, the IncrementalBuilder, and
/// the SegmentStore: the live ingest subsystem's service object.
///
/// Concurrency: HTTP handlers run on executor workers, so every entry
/// point here is thread-safe. The one service mutex guards only the
/// builder (not thread-safe): an ingest advances the builder under it,
/// then appends what finalized to the store with it RELEASED (file IO
/// under a lock is forbidden by the project lint and would stall
/// /stats). The store orders its own seals, so two ingests may append
/// in either order; answers do not change, because canonical ids rank
/// trajectories by (object, start).
///
/// Layering: live/ must not depend on query/, so /query is NOT routed
/// here. The glue binary (examples/live_server.cpp) registers it,
/// building on Snapshot() — the canonical-id StoreSet view — and the
/// query executor it links itself.
class LiveService {
 public:
  explicit LiveService(LiveServiceOptions options);

  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;

  /// Parses and ingests one detection-batch body. On success `*accepted`
  /// is the parsed detection count (late drops still count as accepted —
  /// they are valid protocol, visible in stats). Malformed bodies are
  /// InvalidArgument with nothing ingested. A store failure comes after
  /// the body was ingested; what it finalized stays pending for a later
  /// FlushAll to seal.
  [[nodiscard]] Status IngestBody(std::string_view body,
                                  std::size_t* accepted);

  /// End-of-stream: drains the builder (every buffered detection and
  /// open trace finalizes) and seals the store's pending buffer, so a
  /// following Snapshot is entirely segment-backed.
  [[nodiscard]] Status FlushAll();

  /// The /stats document.
  io::JsonValue StatsJson() const;

  /// Canonical-id view over everything ingested so far (sealed segments
  /// plus the unsealed tail). See SegmentStore::Snapshot.
  [[nodiscard]] Result<storage::StoreSet> Snapshot() const;

  /// Total trajectories finalized so far.
  std::size_t finalized_count() const;

  /// Waits out background compaction and surfaces its first error.
  [[nodiscard]] Status Close();

  /// Registers POST /detections, POST /flush, GET /stats and
  /// POST /shutdown (which Stop()s `server`) on `server`; errors answer
  /// ErrorResponse(status). Call before Serve().
  void RegisterRoutes(HttpServer* server);

 private:
  LiveServiceOptions options_;
  mutable Mutex mutex_;
  IncrementalBuilder builder_ SITM_GUARDED_BY(mutex_);
  /// Internally synchronized; called with mutex_ released.
  SegmentStore store_;
};

}  // namespace sitm::live
