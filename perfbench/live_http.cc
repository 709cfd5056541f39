// live_http: the live path over loopback, writes beside reads. Each
// repetition starts a fresh LiveService and HttpServer on the 2-worker
// executor and loads the first half of a jittered, out-of-order arrival
// stream untimed. In the timed half one client POSTs pre-rendered
// detection batches and asks one GET /query after every kQueryEvery
// acknowledged POSTs, while the store seals and compacts segments in the
// background. The clock stops once POST /flush has answered and
// LiveService::Close() has waited out compaction. Then every query class
// is asked once more over HTTP and must equal the batch pipeline's
// answer over the same detections.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "io/json.h"
#include "live/http_server.h"
#include "live/ingest.h"
#include "live/service.h"
#include "storage/store_set.h"

namespace perfbench {

using namespace sitm;  // NOLINT

namespace {

// ~7.5 * 10^4 detections per repetition, 100 per POST. The first half
// of the stream is loaded untimed, so the timed half runs against a
// store that already holds history and query cost grows by a factor of
// about 1.5 across it rather than from nothing.
constexpr int kVisitors = 12000;
constexpr std::size_t kBatch = 100;
constexpr std::size_t kQueryEvery = 2;
// Transport lag: each detection is delivered up to this long after its
// start, so arrivals are out of order by up to ten minutes.
constexpr std::int64_t kJitterSeconds = 600;
// With ~375 timed POSTs and ~188 GETs per repetition, six timed
// repetitions leave more than 10 samples beyond each p99 (three traced
// ones do for POSTs).
constexpr int kMinReps = 6;
// Mid-stream requests cycle point, window, zone, annotation in a fixed
// order, so every seed asks the same class at the same point of the
// stream; the final check asks every class. The live /query path has no
// result cache, so keys are drawn uniformly from each pool.
constexpr int kStreamClasses = 4;
// Every kWholeEvery-th request is instead a window over the whole
// collection period (everything ingested so far). It decodes every
// segment, so its cost follows the store's size; at 5% of requests it
// holds p99, which otherwise fell on a handful of seed-specific lookups.
constexpr std::size_t kWholeEvery = 20;
const ClassCounts kStreamPools = {96, 64, 48, 48, 1, 1};

struct HttpReply {
  int status = 0;  ///< 0 when the exchange failed at the socket level
  std::string body;
};

bool WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// One request on a fresh loopback connection (the server answers one
/// request per connection and closes it).
HttpReply Call(int port, const std::string& method, const std::string& target,
               const std::string& body) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                        std::to_string(body.size()) +
                        "\r\nConnection: close\r\n\r\n" + body;
  std::string response;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) == 0 &&
      WriteAll(fd, request)) {
    char chunk[16384];
    ssize_t n = 0;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const std::size_t header_end = response.find("\r\n\r\n");
  if (response.compare(0, 9, "HTTP/1.1 ") != 0 ||
      header_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(response.c_str() + 9);
  reply.body = response.substr(header_end + 4);
  return reply;
}

std::int64_t IntField(const std::string& json, const char* key) {
  const Result<io::JsonValue> doc = io::JsonValue::Parse(json);
  if (!doc.ok()) return -1;
  const Result<const io::JsonValue*> field = doc->Get(key);
  if (!field.ok()) return -1;
  return (*field)->AsInt().value_or(-1);
}

/// The delivery order: each detection arrives at its start plus a
/// seeded lag, so the stream is out of order by up to kJitterSeconds.
std::vector<core::RawDetection> ArrivalOrder(
    const std::vector<core::RawDetection>& detections, std::uint64_t seed) {
  Rng rng(seed ^ 0x51C0FFEEULL);
  std::vector<std::pair<std::int64_t, std::size_t>> delivery;
  for (std::size_t i = 0; i < detections.size(); ++i) {
    delivery.emplace_back(detections[i].start.seconds_since_epoch() +
                              rng.NextInt(0, kJitterSeconds),
                          i);
  }
  std::sort(delivery.begin(), delivery.end());
  std::vector<core::RawDetection> ordered;
  for (const auto& [when, index] : delivery) {
    ordered.push_back(detections[index]);
  }
  return ordered;
}

/// The smallest allowed lateness that admits every arrival: the worst
/// event-time regression plus one second (admission is strict).
Duration LatenessFor(const std::vector<core::RawDetection>& arrival) {
  std::int64_t worst = 0;
  std::int64_t prefix_max = arrival.front().start.seconds_since_epoch();
  for (const core::RawDetection& d : arrival) {
    const std::int64_t start = d.start.seconds_since_epoch();
    worst = std::max(worst, prefix_max - start);
    prefix_max = std::max(prefix_max, start);
  }
  return Duration::Seconds(worst + 1);
}

std::vector<std::string> RenderBodies(
    const std::vector<core::RawDetection>& arrival) {
  std::vector<std::string> bodies;
  for (std::size_t i = 0; i < arrival.size(); i += kBatch) {
    std::ostringstream body;
    body << '[';
    for (std::size_t j = i; j < std::min(arrival.size(), i + kBatch); ++j) {
      const core::RawDetection& d = arrival[j];
      body << (j == i ? "" : ",") << "{\"object\":" << d.object.value()
           << ",\"cell\":" << d.cell.value()
           << ",\"start\":" << d.start.seconds_since_epoch()
           << ",\"end\":" << d.end.seconds_since_epoch() << '}';
    }
    body << ']';
    bodies.push_back(body.str());
  }
  return bodies;
}

/// The GET /query requests of one repetition's timed window. Each
/// repetition draws its own parameters, so a run samples the query costs
/// of many more keys than one repetition asks for.
std::vector<QuerySpec> StreamQueries(std::uint64_t seed,
                                     const QueryUniverse& universe,
                                     std::size_t gets) {
  std::vector<std::vector<QuerySpec>> by_class;
  for (int c = 0; c < kStreamClasses; ++c) {
    ClassCounts counts(kNumQueryClasses, 0);
    counts[c] = gets / kStreamClasses + 1;
    by_class.push_back(
        MakeSequence(seed + c, universe, counts, kStreamPools, 0));
  }
  std::vector<QuerySpec> queries;
  for (std::size_t q = 0; q < gets; ++q) {
    QuerySpec spec = by_class[q % kStreamClasses][q / kStreamClasses];
    if (q % kWholeEvery == kWholeEvery - 1) {
      spec = QuerySpec();
      spec.cls = QueryClass::kWindow;
      spec.from = universe.min_time;
      spec.to = universe.max_time;
    }
    queries.push_back(spec);
  }
  return queries;
}

struct Fixture {
  std::size_t detections = 0;
  /// Bodies [0, prefill) are loaded untimed before each repetition.
  std::size_t prefill = 0;
  std::size_t timed_detections = 0;
  Duration lateness;
  std::vector<std::string> bodies;
  std::vector<core::SemanticTrajectory> probes;
  QueryUniverse universe;
  /// One request per class and the batch pipeline's answer to it.
  std::vector<QuerySpec> final_queries;
  std::vector<std::string> final_answers;
  std::size_t oracle_trajectories = 0;
};

/// What one repetition measured.
struct Rep {
  double wall_s = 0, cpu_s = 0;
  double flush_ms = 0;
  Samples post_ms, http_ms;
  Samples get_wall_ms, get_cpu_ms;
  std::uint64_t segment_bytes = 0;
  std::int64_t late_dropped = -1;
  double compactions = 0, write_amplification = 0, peak_open_objects = 0;
  double segments_max = 0;
  double decode_rows_per_s = 0;
};

Rep RunRep(const Config& config, const Fixture& fixture, int rep, bool traced,
           sched::Executor* executor, SpanLog* spans, Outcome* out) {
  Rep result;
  const std::string directory =
      config.workdir + "/live-" + std::to_string(rep);
  std::filesystem::remove_all(directory);

  live::LiveServiceOptions options;
  options.builder = IncrementalConfig(fixture.lateness);
  options.store.directory = directory;
  // Compaction runs inline, in the POST that seals the triggering
  // segment: every repetition then merges at the same points of the
  // stream, and no merge races a timed request.
  options.store.runner = nullptr;
  live::LiveService service(options);
  live::HttpServer server(executor);
  std::atomic<std::size_t> segments_max{0};
  SpanLog* log = traced ? spans : nullptr;

  if (traced) {
    // Registered before the service's routes, so it shadows the stock
    // POST /detections handler and can time IngestBody from outside.
    server.Handle("POST", "/detections",
                  [&service, log](const live::HttpRequest& request) {
                    std::size_t accepted = 0;
                    const double begin = log->Now();
                    const Status status =
                        service.IngestBody(request.body, &accepted);
                    const double end = log->Now();
                    log->Add("live.ingest_body", -1, begin, end);
                    live::HttpResponse response;
                    if (!status.ok()) {
                      response.status = 400;
                      response.body = "{}";
                      return response;
                    }
                    response.body =
                        "{\"accepted\":" + std::to_string(accepted) +
                        ",\"handler_ns\":" +
                        std::to_string(static_cast<std::int64_t>(
                            (end - begin) * 1e9)) +
                        "}";
                    return response;
                  });
  }
  service.RegisterRoutes(&server);
  server.Handle(
      "GET", "/query",
      [&service, &fixture, &segments_max, executor, log](
          const live::HttpRequest& request) {
        live::HttpResponse response;
        response.content_type = "text/plain";
        const Result<QuerySpec> spec = QuerySpec::FromParams(request.query_params);
        if (!spec.ok()) {
          response.status = 400;
          return response;
        }
        const int parent = log ? log->Open("live.query", -1) : -1;
        Result<storage::StoreSet> snapshot = [&] {
          ScopedSpan span(log, "live.snapshot", parent);
          return service.Snapshot();
        }();
        if (!snapshot.ok()) {
          response.status = 500;
          return response;
        }
        std::size_t seen = segments_max.load();
        while (seen < snapshot->segments.size() &&
               !segments_max.compare_exchange_weak(
                   seen, snapshot->segments.size())) {
        }
        query::ExecutorOptions query_options;
        query_options.executor = executor;
        query::QueryExecutor query_executor(Context(), query_options);
        const query::Query q = MakeQuery(*spec, fixture.probes);
        const double run_begin = log ? log->Now() : 0;
        const Result<query::QueryResult> result =
            query_executor.Run(q, *snapshot);
        if (log) {
          const double run_end = log->Now();
          log->Add("live.storeset_query", parent, run_begin, run_end);
          log->Add(std::string("query.") + QueryClassName(spec->cls), parent,
                   run_begin, run_end);
          log->Close(parent);
        }
        if (!result.ok()) {
          response.status = 500;
          return response;
        }
        response.body = result->Fingerprint();
        return response;
      });
  Require(server.Bind(0), "bind");
  const int port = server.port();
  Status served;
  std::thread serve_thread([&server, &served] { served = server.Serve(); });

  std::size_t accepted_total = 0;
  std::vector<std::string> post_errors, get_errors;
  const auto post = [&](const std::string& body) {
    const Clock::time_point post_start = Clock::now();
    const HttpReply reply = Call(port, "POST", "/detections", body);
    const double ms = SecondsSince(post_start) * 1e3;
    const std::int64_t accepted = IntField(reply.body, "accepted");
    if (reply.status != 200 || accepted < 0) {
      post_errors.push_back("POST /detections answered " +
                            std::to_string(reply.status));
    }
    if (accepted > 0) accepted_total += static_cast<std::size_t>(accepted);
    return std::make_pair(ms, reply);
  };

  const std::vector<QuerySpec> stream_queries = StreamQueries(
      config.seed * 1000003 + static_cast<std::uint64_t>(rep),
      fixture.universe,
      (fixture.bodies.size() - fixture.prefill) / kQueryEvery);

  // ---- Untimed history: the first half of the stream, no readers.
  for (std::size_t i = 0; i < fixture.prefill; ++i) post(fixture.bodies[i]);

  // ---- Timed window: the rest of the stream with one GET /query after
  // every kQueryEvery acknowledged POSTs, then flush and close.
  const Stopwatch window;
  for (std::size_t i = fixture.prefill; i < fixture.bodies.size(); ++i) {
    const auto [ms, reply] = post(fixture.bodies[i]);
    result.post_ms.Add(ms);
    if (traced) {
      const std::int64_t handler_ns = IntField(reply.body, "handler_ns");
      result.http_ms.Add(ms - static_cast<double>(handler_ns) / 1e6);
    }
    const std::size_t acked = i + 1 - fixture.prefill;
    if (acked % kQueryEvery != 0) continue;
    const QuerySpec& spec = stream_queries[acked / kQueryEvery - 1];
    const Stopwatch watch;
    const HttpReply answer = Call(port, "GET", "/query?" + spec.ToParams(), "");
    result.get_wall_ms.Add(watch.wall_s() * 1e3);
    result.get_cpu_ms.Add(watch.cpu_s() * 1e3);
    if (answer.status != 200) {
      get_errors.push_back("GET /query answered " +
                           std::to_string(answer.status));
    }
  }
  const Clock::time_point flush_start = Clock::now();
  const HttpReply flushed = Call(port, "POST", "/flush", "");
  result.flush_ms = SecondsSince(flush_start) * 1e3;
  const Status closed = service.Close();
  result.wall_s = window.wall_s();
  result.cpu_s = window.cpu_s();

  // ---- Answer checks (untimed).
  out->Attempt(fixture.bodies.size() + stream_queries.size());
  for (const std::string& error : post_errors) out->Fail(error);
  for (const std::string& error : get_errors) out->Fail(error);
  out->Check(flushed.status == 200, "POST /flush failed");
  out->Check(closed.ok(), "LiveService::Close: " + closed.ToString());
  out->Check(accepted_total == fixture.detections,
             "acknowledged " + std::to_string(accepted_total) + " of " +
                 std::to_string(fixture.detections) + " detections");
  for (std::size_t i = 0; i < fixture.final_queries.size(); ++i) {
    const HttpReply reply =
        Call(port, "GET", "/query?" + fixture.final_queries[i].ToParams(), "");
    out->Check(reply.status == 200 && reply.body == fixture.final_answers[i],
               std::string("live ") +
                   QueryClassName(fixture.final_queries[i].cls) +
                   " answer differs from the batch pipeline's");
  }
  const io::JsonValue stats = service.StatsJson();
  const auto field = [&stats](const char* section, const char* key) {
    const auto part = stats.Get(section);
    if (!part.ok()) return -1.0;
    const auto value = (*part)->Get(key);
    if (!value.ok()) return -1.0;
    return (*value)->AsDouble().value_or(-1.0);
  };
  result.late_dropped =
      static_cast<std::int64_t>(field("builder", "late_dropped"));
  out->Check(result.late_dropped == 0, "late detections were dropped");
  result.segment_bytes =
      static_cast<std::uint64_t>(field("store", "segment_bytes"));
  result.compactions = field("store", "compactions");
  result.write_amplification =
      field("store", "written_bytes") / field("store", "logical_bytes");
  result.peak_open_objects = field("builder", "peak_open_objects");

  if (traced) {
    // A full decode of every sealed segment.
    const storage::StoreSet snapshot =
        Require(service.Snapshot(), "final snapshot");
    const Clock::time_point scan_start = Clock::now();
    std::uint64_t rows = 0;
    for (const storage::StoreSetSegment& segment : snapshot.segments) {
      Require(segment.reader->ReadTrajectories().status(), "segment scan");
      rows += segment.reader->rows();
    }
    result.decode_rows_per_s =
        static_cast<double>(rows) / SecondsSince(scan_start);
  }
  server.Stop();
  serve_thread.join();
  out->Check(served.ok(), "HttpServer::Serve: " + served.ToString());
  result.segments_max = static_cast<double>(segments_max.load());
  std::filesystem::remove_all(directory);
  return result;
}

}  // namespace

Outcome RunLiveHttp(const Config& config) {
  Outcome out;
  Timings timings;
  sched::Executor executor(kWorkers);
  query::ExecutorOptions options;
  options.executor = &executor;

  // ---- Set-up, repeated: simulate, order the arrivals, render the
  // bodies, and build the batch oracle.
  Fixture fixture;
  std::vector<double> simulate_s, build_s, tasks, steals, busy;
  double dropped = 0;
  Samples json_parse_us, batch_parse_us;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Stopwatch setup_watch;
    fixture = Fixture();
    Population population = Simulate(config.seed, kVisitors, 1);
    simulate_s.push_back(population.simulate_s);
    fixture.detections = population.detections.size();
    const std::vector<core::RawDetection> arrival =
        ArrivalOrder(population.detections, config.seed);
    fixture.lateness = LatenessFor(arrival);
    fixture.bodies = RenderBodies(arrival);
    fixture.prefill = fixture.bodies.size() / 2;
    fixture.timed_detections =
        fixture.detections - fixture.prefill * kBatch;
    const QueryUniverse universe = UniverseOf(population.detections, 16);

    executor.trace().Clear();
    const Clock::time_point build_start = Clock::now();
    const std::int64_t begin_ns = executor.NowNs();
    core::BatchPipeline pipeline(PipelineConfig(&executor));
    const std::vector<core::SemanticTrajectory> oracle =
        Require(pipeline.Run(std::move(population.detections)), "oracle");
    const std::int64_t end_ns = executor.NowNs();
    build_s.push_back(SecondsSince(build_start));
    const SchedSample sched = SchedWindow(executor, begin_ns, end_ns);
    tasks.push_back(sched.tasks);
    steals.push_back(sched.steals);
    busy.push_back(sched.busy_frac);
    dropped = std::max(dropped, sched.dropped);
    fixture.oracle_trajectories = oracle.size();

    Rng rng(config.seed ^ 0x9E0BE5ULL);
    for (std::size_t p = 0; p < universe.num_probes; ++p) {
      fixture.probes.push_back(oracle[rng.NextBounded(oracle.size())]);
    }
    fixture.universe = universe;
    const std::vector<QuerySpec> one_each =
        MakeSequence(config.seed + 1, universe, {1, 1, 1, 1, 1, 1},
                     {1, 1, 1, 1, 1, 1}, 0);
    query::QueryExecutor in_memory(Context(), options);
    for (const QuerySpec& spec : one_each) {
      fixture.final_queries.push_back(spec);
      fixture.final_answers.push_back(
          Require(in_memory.Run(MakeQuery(spec, fixture.probes), oracle),
                  "oracle query")
              .Fingerprint());
    }
    timings.setup_wall_s.push_back(setup_watch.wall_s());
    timings.setup_cpu_s.push_back(setup_watch.cpu_s());
    ReleaseFreedMemory();
  }
  if (config.trace) {
    // The io and live parse layers, timed on every body.
    for (const std::string& body : fixture.bodies) {
      Clock::time_point start = Clock::now();
      const bool json_ok = io::JsonValue::Parse(body).ok();
      json_parse_us.Add(SecondsSince(start) * 1e6);
      start = Clock::now();
      const bool batch_ok = live::ParseDetectionBatch(body).ok();
      batch_parse_us.Add(SecondsSince(start) * 1e6);
      out.Check(json_ok && batch_ok, "body does not parse");
    }
  }

  SpanLog spans;
  timings.detections = static_cast<double>(fixture.timed_detections);
  Samples post_ms, http_ms;
  std::vector<double> flush_ms;
  Rep last;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  // Repetition 0 warms caches and the allocator and is not recorded.
  for (int rep = 0; rep <= kMinReps || Clock::now() < deadline; ++rep) {
    const bool traced = config.trace && rep % 2 == 0 && rep > 0;
    Rep result =
        RunRep(config, fixture, rep, traced, &executor, &spans, &out);
    ReleaseFreedMemory();
    if (rep == 0) continue;
    timings.build_wall_s[traced].push_back(result.wall_s);
    timings.build_cpu_s[traced].push_back(result.cpu_s);
    timings.query_wall_ms[traced].Append(result.get_wall_ms);
    timings.query_cpu_ms[traced].Append(result.get_cpu_ms);
    const double n = static_cast<double>(result.get_cpu_ms.size());
    timings.queries_per_wall_s[traced].push_back(
        n / (result.get_wall_ms.Sum() / 1e3));
    timings.queries_per_cpu_s[traced].push_back(
        n / (result.get_cpu_ms.Sum() / 1e3));
    if (traced) {
      post_ms.Append(result.post_ms);
      http_ms.Append(result.http_ms);
      flush_ms.push_back(result.flush_ms);
    }
    if (traced || !config.trace) last = result;
  }
  ReportTimings(config, timings, &out);
  out.Set("store_bytes_per_detection",
          static_cast<double>(last.segment_bytes) /
              static_cast<double>(fixture.detections));
  if (!config.trace) return out;

  out.Set("louvre.simulate_s", Median(simulate_s));
  out.Set("core.pipeline_ms_p50", Median(build_s) * 1e3);
  out.Set("core.trajectories", static_cast<double>(fixture.oracle_trajectories));
  out.Set("sched.tasks", Median(tasks));
  out.Set("sched.steals", Median(steals));
  out.Set("sched.busy_frac", Median(busy));
  out.Set("sched.trace_dropped", dropped);
  out.Check(dropped == 0, "executor trace dropped spans");
  out.Set("storage.bytes", static_cast<double>(last.segment_bytes));
  out.Set("storage.decode_rows_per_s", last.decode_rows_per_s);
  for (int c = 0; c < kNumQueryClasses; ++c) {
    const std::string name =
        std::string("query.") + QueryClassName(static_cast<QueryClass>(c));
    out.Set(name + "_ms_p50", spans.Durations(name).Median() * 1e3);
  }
  out.Set("io.json_parse_us_p50", json_parse_us.Median());
  out.Set("live.parse_us_p50", batch_parse_us.Median());
  const Samples ingest_body = spans.Durations("live.ingest_body");
  out.Set("live.ingest_body_ms_p50", ingest_body.Median() * 1e3);
  out.Set("live.ingest_body_ms_p99", ingest_body.Tail(0.99).value_or(0) * 1e3);
  out.Set("live.post_ms_p50", post_ms.Median());
  out.Set("live.post_ms_p99", post_ms.Tail(0.99).value_or(0));
  out.Check(ingest_body.Tail(0.99).has_value() && post_ms.Tail(0.99).has_value(),
            "too few traced POSTs for p99");
  out.Set("live.http_ms_p50", http_ms.Median());
  out.Set("live.snapshot_ms_p50", spans.Durations("live.snapshot").Median() * 1e3);
  out.Set("live.storeset_query_ms_p50",
          spans.Durations("live.storeset_query").Median() * 1e3);
  out.Set("live.flush_ms", Median(flush_ms));
  out.Set("live.compactions", last.compactions);
  out.Set("live.write_amplification", last.write_amplification);
  out.Set("live.segments_max", last.segments_max);
  out.Set("live.peak_open_objects", last.peak_open_objects);
  out.Set("live.late_dropped", static_cast<double>(last.late_dropped));
  return out;
}

}  // namespace perfbench
