#include "live/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <utility>

namespace sitm::live {

namespace {

constexpr std::size_t kMaxHeaderBytes = 16 * 1024;
constexpr std::size_t kMaxBodyBytes = 8 * 1024 * 1024;
/// A stuck client may block its handler; without a socket timeout the
/// drain in Serve() would then never finish.
constexpr int kSocketTimeoutSeconds = 30;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Percent-decoding; `plus_is_space` applies the form-encoding rule
/// used in query strings. Invalid %-escapes pass through literally.
std::string UrlDecode(std::string_view text, bool plus_is_space) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+' && plus_is_space) {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < text.size() &&
               HexDigit(text[i + 1]) >= 0 && HexDigit(text[i + 2]) >= 0) {
      out.push_back(static_cast<char>(HexDigit(text[i + 1]) * 16 +
                                      HexDigit(text[i + 2])));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// All-or-nothing send; MSG_NOSIGNAL keeps a dead peer from raising
/// SIGPIPE at the process.
bool SendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void WriteResponse(int fd, const HttpResponse& response) {
  std::string wire = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     ReasonPhrase(response.status) + "\r\n";
  wire += "Content-Type: " + response.content_type + "\r\n";
  wire += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  wire += "Connection: close\r\n\r\n";
  wire += response.body;
  const bool sent = SendAll(fd, wire);
  (void)sent;  // the peer hanging up mid-response is its problem
}

HttpResponse ErrorResponse(int status, std::string message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\": \"" + std::move(message) + "\"}\n";
  return response;
}

void ParseQuery(std::string_view query,
                std::vector<std::pair<std::string, std::string>>* out) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? query : query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view()
                                          : query.substr(amp + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      out->emplace_back(UrlDecode(pair, /*plus_is_space=*/true), "");
    } else {
      out->emplace_back(UrlDecode(pair.substr(0, eq), /*plus_is_space=*/true),
                        UrlDecode(pair.substr(eq + 1), /*plus_is_space=*/true));
    }
  }
}

}  // namespace

const std::string* HttpRequest::QueryParam(std::string_view key) const {
  for (const auto& [k, v] : query_params) {
    if (k == key) return &v;
  }
  return nullptr;
}

HttpServer::HttpServer(TaskRunner* runner) : runner_(runner) {}

HttpServer::~HttpServer() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::Handle(std::string method, std::string path,
                        Handler handler) {
  routes_.push_back(
      Route{std::move(method), std::move(path), std::move(handler)});
}

Status HttpServer::Bind(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Status HttpServer::Serve() {
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition("HttpServer: Serve before Bind");
  }
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      MutexLock lock(mutex_);
      if (stopping_) break;
      return Status::IOError(std::string("accept: ") + std::strerror(errno));
    }
    {
      MutexLock lock(mutex_);
      if (stopping_) {
        // Stop raced the accept: refuse the connection and drain.
        ::close(fd);
        break;
      }
      ++active_connections_;
    }
    if (runner_ == nullptr) {
      HandleConnection(fd);
    } else {
      runner_->Submit(
          Task{"live/http-connection", [this, fd] { HandleConnection(fd); }});
    }
  }
  MutexLock lock(mutex_);
  while (active_connections_ != 0) {
    drained_.Wait(lock);
  }
  return Status::OK();
}

void HttpServer::Stop() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  if (listen_fd_ >= 0) {
    // Wakes the blocked accept() with an error; the loop then sees
    // stopping_ and exits cleanly.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
}

void HttpServer::HandleConnection(int fd) {
  timeval timeout{};
  timeout.tv_sec = kSocketTimeoutSeconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  // Read until the blank line terminating the headers (the buffer may
  // already contain the start of the body).
  std::string buffer;
  std::size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    if (buffer.size() > kMaxHeaderBytes) {
      WriteResponse(fd, ErrorResponse(431, "request headers too large"));
      ::close(fd);
      FinishConnection();
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);  // timeout or peer hangup before a full request
      FinishConnection();
      return;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    header_end = buffer.find("\r\n\r\n");
  }
  // The in-loop check only catches a terminator that never arrives; a
  // fast client can deliver oversized headers AND the blank line in one
  // burst, so the found header block must be re-checked against the cap.
  if (header_end > kMaxHeaderBytes) {
    WriteResponse(fd, ErrorResponse(431, "request headers too large"));
    ::close(fd);
    FinishConnection();
    return;
  }

  HttpRequest request;
  std::size_t content_length = 0;
  bool bad = false;
  {
    std::string_view head = std::string_view(buffer).substr(0, header_end);
    const std::size_t line_end = head.find("\r\n");
    const std::string_view request_line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? std::string_view::npos
                                      : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      bad = true;
    } else {
      request.method = std::string(request_line.substr(0, sp1));
      std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::size_t qmark = target.find('?');
      if (qmark == std::string_view::npos) {
        request.path = UrlDecode(target, /*plus_is_space=*/false);
      } else {
        request.path =
            UrlDecode(target.substr(0, qmark), /*plus_is_space=*/false);
        ParseQuery(target.substr(qmark + 1), &request.query_params);
      }
    }
    std::string_view rest =
        line_end == std::string_view::npos ? std::string_view()
                                           : head.substr(line_end + 2);
    while (!rest.empty()) {
      const std::size_t eol = rest.find("\r\n");
      const std::string_view line =
          eol == std::string_view::npos ? rest : rest.substr(0, eol);
      rest = eol == std::string_view::npos ? std::string_view()
                                           : rest.substr(eol + 2);
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos) continue;
      if (EqualsIgnoreCase(Trim(line.substr(0, colon)), "content-length")) {
        const std::string_view value = Trim(line.substr(colon + 1));
        if (value.empty()) bad = true;
        content_length = 0;
        for (const char c : value) {
          if (c < '0' || c > '9') {
            bad = true;
            break;
          }
          // Once past the cap the exact value no longer matters (the
          // 413 path fires); stopping keeps the accumulation
          // overflow-free on adversarial lengths.
          if (content_length > kMaxBodyBytes) break;
          content_length = content_length * 10 +
                           static_cast<std::size_t>(c - '0');
        }
      }
    }
  }
  if (bad) {
    WriteResponse(fd, ErrorResponse(400, "malformed request"));
    ::close(fd);
    FinishConnection();
    return;
  }
  if (content_length > kMaxBodyBytes) {
    WriteResponse(fd, ErrorResponse(413, "body too large"));
    ::close(fd);
    FinishConnection();
    return;
  }

  request.body = buffer.substr(header_end + 4);
  while (request.body.size() < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);  // truncated body
      FinishConnection();
      return;
    }
    request.body.append(chunk, static_cast<std::size_t>(n));
  }
  request.body.resize(content_length);  // drop pipelined trailing bytes

  const Route* match = nullptr;
  bool path_seen = false;
  for (const Route& route : routes_) {
    if (route.path != request.path) continue;
    path_seen = true;
    if (route.method == request.method) {
      match = &route;
      break;
    }
  }
  if (match == nullptr) {
    WriteResponse(fd, path_seen
                          ? ErrorResponse(405, "method not allowed")
                          : ErrorResponse(404, "no such endpoint"));
  } else {
    WriteResponse(fd, match->handler(request));
  }
  ::close(fd);
  FinishConnection();
}

void HttpServer::FinishConnection() {
  MutexLock lock(mutex_);
  --active_connections_;
  drained_.NotifyAll();
}

}  // namespace sitm::live
