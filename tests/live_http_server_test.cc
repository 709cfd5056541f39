// HttpServer protocol behavior over real loopback sockets: routing,
// status codes for malformed/oversized input, query-string decoding,
// Content-Length bodies, the Stop/drain contract, and a handler that
// throws — with handlers running both inline and detached on the
// executor.
#include "live/http_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sched/executor.h"

namespace sitm::live {
namespace {

/// A client socket connected to 127.0.0.1:port.
int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Sends `raw` to 127.0.0.1:port and returns everything the server
/// writes back until it closes the connection.
std::string RawRoundTrip(int port, const std::string& raw) {
  const int fd = Connect(port);
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

int StatusOf(const std::string& response) {
  // "HTTP/1.1 NNN ..."
  if (response.size() < 12) return -1;
  return std::stoi(response.substr(9, 3));
}

std::string BodyOf(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

/// Serve() on a background thread; joined (after Stop) in TearDown.
class ServerFixture {
 public:
  explicit ServerFixture(TaskRunner* runner = nullptr) : server_(runner) {}

  HttpServer& server() { return server_; }

  void Start() {
    ASSERT_TRUE(server_.Bind(0).ok());
    // The server under test owns no threads; the accept loop needs one.
    serve_thread_ = std::thread(  // sitm-lint: allow(naked-thread)
        [this] { serve_status_ = server_.Serve(); });
  }

  Status StopAndJoin() {
    server_.Stop();
    if (serve_thread_.joinable()) serve_thread_.join();
    return serve_status_;
  }

  ~ServerFixture() {
    server_.Stop();
    if (serve_thread_.joinable()) serve_thread_.join();
  }

 private:
  HttpServer server_;
  std::thread serve_thread_;  // sitm-lint: allow(naked-thread)
  Status serve_status_;
};

void RegisterEchoRoutes(HttpServer& server) {
  server.Handle("GET", "/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  server.Handle("POST", "/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.body;
    return response;
  });
  server.Handle("GET", "/params", [](const HttpRequest& request) {
    HttpResponse response;
    for (const auto& [key, value] : request.query_params) {
      response.body += key + "=" + value + ";";
    }
    return response;
  });
}

TEST(HttpServerTest, RoutesAndStatusCodes) {
  ServerFixture fixture;
  RegisterEchoRoutes(fixture.server());
  fixture.Start();
  const int port = fixture.server().port();
  ASSERT_GT(port, 0);

  const std::string ok =
      RawRoundTrip(port, "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusOf(ok), 200);
  EXPECT_EQ(BodyOf(ok), "pong");
  EXPECT_NE(ok.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(ok.find("Connection: close"), std::string::npos);

  // Unknown path vs known path with the wrong method.
  EXPECT_EQ(StatusOf(RawRoundTrip(
                port, "GET /nowhere HTTP/1.1\r\n\r\n")),
            404);
  EXPECT_EQ(StatusOf(RawRoundTrip(port, "POST /ping HTTP/1.1\r\n\r\n")),
            405);
  // Malformed request line.
  EXPECT_EQ(StatusOf(RawRoundTrip(port, "NONSENSE\r\n\r\n")), 400);
  // Declared body over the 8 MiB cap: rejected before it is read.
  EXPECT_EQ(StatusOf(RawRoundTrip(
                port,
                "POST /echo HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n")),
            413);
  // Bad Content-Length value.
  EXPECT_EQ(StatusOf(RawRoundTrip(
                port, "POST /echo HTTP/1.1\r\nContent-Length: abc\r\n\r\n")),
            400);
  // Headers over the 16 KiB cap.
  EXPECT_EQ(StatusOf(RawRoundTrip(
                port, "GET /ping HTTP/1.1\r\nX-Pad: " +
                          std::string(17 * 1024, 'a') + "\r\n\r\n")),
            431);

  EXPECT_TRUE(fixture.StopAndJoin().ok());
}

TEST(HttpServerTest, BodyAndQueryDecoding) {
  ServerFixture fixture;
  RegisterEchoRoutes(fixture.server());
  fixture.Start();
  const int port = fixture.server().port();

  const std::string payload = "{\"detections\": []}";
  const std::string echoed = RawRoundTrip(
      port, "POST /echo HTTP/1.1\r\nContent-Length: " +
                std::to_string(payload.size()) + "\r\n\r\n" + payload);
  EXPECT_EQ(StatusOf(echoed), 200);
  EXPECT_EQ(BodyOf(echoed), payload);

  // Percent- and plus-decoding in query values, order preserved,
  // repeated keys kept.
  const std::string params = RawRoundTrip(
      port,
      "GET /params?cell=42&name=mona%20lisa&q=a%2Bb+c&cell=7 "
      "HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusOf(params), 200);
  EXPECT_EQ(BodyOf(params), "cell=42;name=mona lisa;q=a+b c;cell=7;");

  // Percent-decoded path still routes exactly.
  EXPECT_EQ(StatusOf(RawRoundTrip(port, "GET /%70ing HTTP/1.1\r\n\r\n")),
            200);

  EXPECT_TRUE(fixture.StopAndJoin().ok());
}

TEST(HttpServerTest, ConcurrentConnectionsOnExecutor) {
  sched::Executor executor(4);
  ServerFixture fixture(&executor);
  RegisterEchoRoutes(fixture.server());
  fixture.Start();
  const int port = fixture.server().port();

  std::vector<std::thread> clients;  // sitm-lint: allow(naked-thread)
  std::vector<std::string> responses(16);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    clients.emplace_back(  // sitm-lint: allow(naked-thread)
        [port, i, &responses] {
          const std::string body = "client-" + std::to_string(i);
          responses[i] = RawRoundTrip(
              port, "POST /echo HTTP/1.1\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body);
        });
  }
  // sitm-lint: allow(naked-thread)
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(StatusOf(responses[i]), 200) << i;
    EXPECT_EQ(BodyOf(responses[i]), "client-" + std::to_string(i));
  }

  // Stop from the main thread while the server idles: Serve must
  // return OK with every connection drained.
  EXPECT_TRUE(fixture.StopAndJoin().ok());
}

TEST(HttpServerTest, StopIsIdempotentAndServeReturnsClean) {
  ServerFixture fixture;
  RegisterEchoRoutes(fixture.server());
  fixture.Start();
  EXPECT_EQ(StatusOf(RawRoundTrip(fixture.server().port(),
                                  "GET /ping HTTP/1.1\r\n\r\n")),
            200);
  fixture.server().Stop();
  fixture.server().Stop();  // idempotent
  EXPECT_TRUE(fixture.StopAndJoin().ok());
}

// A handler that throws still takes the connection's one exit: the
// client sees its connection close with no reply, other routes keep
// answering, and Stop() still drains. Every wait is bounded, so a
// server that leaks the connection fails here rather than hangs.
TEST(HttpServerTest, ThrowingHandlerClosesItsConnection) {
  sched::Executor executor(2);
  // Leaked, with the serve thread detached, if Serve() never returns:
  // the blocked thread must not outlive the server it waits in. No
  // ASSERT may return between the thread's start and its join.
  auto* server = new HttpServer(&executor);
  RegisterEchoRoutes(*server);
  server->Handle("GET", "/throw", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("handler failed");
  });
  ASSERT_TRUE(server->Bind(0).ok());
  const int port = server->port();
  auto served = std::make_shared<std::promise<Status>>();
  std::future<Status> serve_status = served->get_future();
  std::thread serve_thread(  // sitm-lint: allow(naked-thread)
      [server, served] { served->set_value(server->Serve()); });

  const int fd = Connect(port);
  timeval timeout{};
  timeout.tv_sec = 5;
  EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  const std::string request = "GET /throw HTTP/1.1\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "no close within 5 s";
  ::close(fd);

  EXPECT_EQ(StatusOf(RawRoundTrip(port, "GET /ping HTTP/1.1\r\n\r\n")), 200);

  server->Stop();
  if (serve_status.wait_for(std::chrono::seconds(5)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "Serve() did not return within 5 s of Stop()";
    serve_thread.detach();
    return;
  }
  serve_thread.join();
  EXPECT_TRUE(serve_status.get().ok());
  delete server;
}

}  // namespace
}  // namespace sitm::live
