// Measurement helpers of the end-to-end benchmark: sample sets with the
// percentile rule, benchmark-side spans around calls into the library's
// layers, and the metric catalogue the benchmark prints. Header-only and
// free of library dependencies, so selftest.cc can check it alone.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of every thread of this process, in seconds. Unlike wall
/// time it leaves out time a virtual machine's host steals from it.
inline double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

/// Wall time and process CPU time elapsed since construction.
class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_(ProcessCpuSeconds()) {}
  double wall_s() const { return SecondsSince(wall_); }
  double cpu_s() const { return ProcessCpuSeconds() - cpu_; }

 private:
  Clock::time_point wall_;
  double cpu_;
};

/// Smallest number of samples that must lie above a reported percentile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank index (0-based) of quantile `q` in `n` sorted samples.
inline std::size_t RankIndex(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t one_based =
      std::max<std::size_t>(1, static_cast<std::size_t>(rank));
  return std::min(n, one_based) - 1;
}

/// Samples strictly above the nearest-rank quantile `q` of `n` samples.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, q);
}

/// Median: the mean of the two middle samples for an even count.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// A set of timings (or any other per-operation values).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Median() const { return perfbench::Median(values_); }

  double Sum() const {
    double sum = 0;
    for (const double v : values_) sum += v;
    return sum;
  }

  /// The nearest-rank quantile `q`, or nullopt when fewer than
  /// kMinSamplesBeyond samples lie above it: a tail percentile with too
  /// few samples beyond it is a single outlier, not a measurement.
  std::optional<double> Tail(double q) const {
    if (values_.empty() ||
        SamplesBeyond(values_.size(), q) < kMinSamplesBeyond) {
      return std::nullopt;
    }
    std::vector<double> sorted = values_;
    const std::size_t index = RankIndex(sorted.size(), q);
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(index),
                     sorted.end());
    return sorted[index];
  }

 private:
  std::vector<double> values_;
};

/// Total length of the union of closed intervals.
inline double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double open_begin = 0, open_end = 0;
  bool open = false;
  for (const auto& [begin, end] : intervals) {
    if (end <= begin) continue;
    if (open && begin <= open_end) {
      open_end = std::max(open_end, end);
      continue;
    }
    if (open) total += open_end - open_begin;
    open_begin = begin;
    open_end = end;
    open = true;
  }
  if (open) total += open_end - open_begin;
  return total;
}

/// One benchmark-side span: a call into a layer, timed from outside.
struct Span {
  std::string name;
  /// Index of the enclosing span in the log, or -1 for a root.
  int parent = -1;
  double begin_s = 0;
  double end_s = 0;

  double duration() const { return end_s - begin_s; }
};

/// Spans recorded by the benchmark around its calls into the library.
/// Thread-safe: live handlers record from executor workers.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  double Now() const { return SecondsSince(epoch_); }

  /// Records a finished span; returns its index.
  int Add(std::string name, int parent, double begin_s, double end_s) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), parent, begin_s, end_s});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Opens a span whose end is filled in by Close().
  int Open(std::string name, int parent) {
    const double now = Now();
    return Add(std::move(name), parent, now, now);
  }

  void Close(int index) {
    const double now = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_s = now;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Durations (seconds) of every span called `name`.
  Samples Durations(const std::string& name) const {
    Samples samples;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& span : spans_) {
      if (span.name == name) samples.Add(span.duration());
    }
    return samples;
  }

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Part of span `index`'s interval covered by its direct children.
inline double ChildCoverage(const std::vector<Span>& spans, int index) {
  const Span& parent = spans[static_cast<std::size_t>(index)];
  std::vector<std::pair<double, double>> children;
  for (const Span& span : spans) {
    if (span.parent != index) continue;
    children.emplace_back(std::max(span.begin_s, parent.begin_s),
                          std::min(span.end_s, parent.end_s));
  }
  return UnionLength(std::move(children));
}

/// A span's self time: its duration minus the part its children cover.
inline double SelfTime(const std::vector<Span>& spans, int index) {
  return spans[static_cast<std::size_t>(index)].duration() -
         ChildCoverage(spans, index);
}

/// Share of a span's duration covered by its children (1 for an empty
/// span, which has nothing left uncovered).
inline double CoverageFraction(const std::vector<Span>& spans, int index) {
  const double duration = spans[static_cast<std::size_t>(index)].duration();
  if (duration <= 0) return 1.0;
  return ChildCoverage(spans, index) / duration;
}

/// Records a span around a scope when a log is present.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent = -1)
      : log_(log), index_(log ? log->Open(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metrics of an untraced run (BENCHMARK.json "end_to_end").
inline const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"detections_per_cpu_s", "1/s"},
      {"store_bytes_per_detection", "B"},
      {"queries_per_cpu_s", "1/s"},
      {"query_cpu_ms_p50", "ms"},
      {"query_cpu_ms_p99", "ms"},
  };
  return metrics;
}

/// Metrics of a traced run (BENCHMARK.json "per_layer").
inline const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"wall.setup_s", "s"},
      {"wall.detections_per_s", "1/s"},
      {"wall.queries_per_s", "1/s"},
      {"wall.query_ms_p50", "ms"},
      {"wall.query_ms_p99", "ms"},
      {"louvre.simulate_s", "s"},
      {"core.pipeline_ms_p50", "ms"},
      {"core.trajectories", "count"},
      {"sched.tasks", "count"},
      {"sched.steals", "count"},
      {"sched.busy_frac", "frac"},
      {"sched.trace_dropped", "count"},
      {"storage.write_ms_p50", "ms"},
      {"storage.open_ms_p50", "ms"},
      {"storage.bytes", "count"},
      {"storage.decode_rows_per_s", "1/s"},
      {"query.point_ms_p50", "ms"},
      {"query.window_ms_p50", "ms"},
      {"query.zone_ms_p50", "ms"},
      {"query.annotation_ms_p50", "ms"},
      {"query.episode_ms_p50", "ms"},
      {"query.topk_ms_p50", "ms"},
      {"query.plan_us_p50", "us"},
      {"query.blocks_scanned_frac", "frac"},
      {"query.rows_scanned_per_match", "count"},
      {"query.cache_hit_ratio", "frac"},
      {"query.cache_evictions", "count"},
      {"io.json_parse_us_p50", "us"},
      {"live.parse_us_p50", "us"},
      {"live.ingest_body_ms_p50", "ms"},
      {"live.ingest_body_ms_p99", "ms"},
      {"live.post_ms_p50", "ms"},
      {"live.post_ms_p99", "ms"},
      {"live.http_ms_p50", "ms"},
      {"live.snapshot_ms_p50", "ms"},
      {"live.storeset_query_ms_p50", "ms"},
      {"live.flush_ms", "ms"},
      {"live.compactions", "count"},
      {"live.write_amplification", "frac"},
      {"live.segments_max", "count"},
      {"live.peak_open_objects", "count"},
      {"live.late_dropped", "count"},
      {"trace.detections_per_cpu_s_overhead", "frac"},
      {"trace.queries_per_cpu_s_overhead", "frac"},
  };
  return metrics;
}

}  // namespace perfbench
