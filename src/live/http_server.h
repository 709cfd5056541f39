#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/result.h"
#include "base/task_runner.h"
#include "base/thread_annotations.h"

namespace sitm::live {

/// One parsed request. The path is percent-decoded with the query
/// string split off; query parameters keep their request order.
struct HttpRequest {
  std::string method;
  std::string path;
  std::vector<std::pair<std::string, std::string>> query_params;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// The one error answer: `status` with the body `{"error": "<message>"}`.
HttpResponse ErrorResponse(int status, std::string_view message);

/// The one Status→HTTP rule, shared by every route: InvalidArgument
/// (the request was malformed and nothing of it was applied) answers
/// 400; every other code means the server failed and answers 500.
HttpResponse ErrorResponse(const Status& status);

/// "a=1&b=2" -> ordered pairs, keys and values percent-decoded with
/// '+' as space; repeated keys are kept.
std::vector<std::pair<std::string, std::string>> ParseQueryString(
    std::string_view query);

/// \brief Minimal blocking-socket HTTP/1.1 server for the live ingest
/// endpoint — loopback tooling, not an internet-facing server.
///
/// Protocol subset: one request per connection (`Connection: close` is
/// always answered), `Content-Length` bodies only (no chunked
/// encoding), headers capped at 16 KiB and bodies at 8 MiB. Oversized
/// or malformed requests get 400/413/431, unrouted paths 404 and a
/// routed path with another method 405, each as an ErrorResponse. The
/// caps plus percent-decoding are the only parsing the server does —
/// body interpretation belongs to the handlers.
///
/// Concurrency: Serve() blocks in the accept loop on the calling
/// thread; each accepted connection is handled as one task submitted
/// *detached* to the runner (inline on the accept thread when the
/// runner is null). Stop() — callable from any thread — wakes the
/// accept loop via ::shutdown on the listening socket; Serve() then
/// waits for in-flight connections to drain before returning, so after
/// Serve() returns no handler is running.
///
/// Lifecycle contract: register every route with Handle(), then Bind(),
/// then Serve(); Handle after Serve has started is undefined. The
/// caller must ensure Serve() has returned before destroying the
/// server.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(TaskRunner* runner = nullptr);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact (method, path) matches; the first
  /// registration of a (method, path) wins.
  void Handle(std::string method, std::string path, Handler handler);

  /// Binds and listens on loopback. `port` 0 picks an ephemeral port,
  /// readable via port() afterwards.
  [[nodiscard]] Status Bind(int port);

  /// The bound port (valid after a successful Bind).
  int port() const { return port_; }

  /// Accept loop; blocks until Stop(). Returns OK on a clean stop.
  [[nodiscard]] Status Serve();

  /// Requests shutdown and wakes the accept loop. Safe from any thread,
  /// idempotent.
  void Stop();

 private:
  struct Route {
    std::string method;
    std::string path;
    Handler handler;
  };

  /// Reads, routes, answers, and closes one connection. Protocol
  /// errors become 4xx responses or a dropped socket; a handler that
  /// throws gets the socket closed with no reply.
  void HandleConnection(int fd);
  /// The handler of the first route matching (method, path), or 404/405.
  HttpResponse Dispatch(const HttpRequest& request) const;
  void FinishConnection();

  TaskRunner* runner_;
  /// Fixed before Serve(), then read concurrently without a lock.
  std::vector<Route> routes_;
  int listen_fd_ = -1;
  int port_ = 0;

  mutable Mutex mutex_;
  /// Signaled when active_connections_ drops.
  mutable CondVar drained_;
  bool stopping_ SITM_GUARDED_BY(mutex_) = false;
  std::size_t active_connections_ SITM_GUARDED_BY(mutex_) = 0;
};

}  // namespace sitm::live
