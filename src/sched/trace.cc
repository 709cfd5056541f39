#include "sched/trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>

namespace sitm::sched {

namespace {

void CopyName(const std::string& name, char (&out)[TraceSpan::kNameWidth]) {
  const std::size_t n = std::min(name.size(), TraceSpan::kNameWidth - 1);
  std::memcpy(out, name.data(), n);
  out[n] = '\0';
}

/// Span names are short ASCII identifiers ("pipeline/build"), but a
/// caller could pass anything, so escape the JSON-special bytes.
void AppendJsonString(const char* text, std::string* out) {
  out->push_back('"');
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

TraceSink::TraceSink(std::size_t lanes, std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

void TraceSink::Record(std::size_t lane, const TraceSpan& span) {
  if (lane >= lanes_.size()) return;  // defensive: never crash a worker
  Lane& l = *lanes_[lane];
  MutexLock lock(l.mutex);
  if (l.ring.size() < capacity_) {
    l.ring.push_back(span);
  } else {
    l.ring[l.next] = span;
    l.next = (l.next + 1) % capacity_;
    ++l.dropped;
  }
}

void TraceSink::RecordTask(std::size_t lane, const std::string& name,
                           std::int64_t begin_ns, std::int64_t end_ns) {
  TraceSpan span;
  span.kind = TraceSpan::Kind::kTask;
  span.lane = static_cast<std::uint32_t>(lane);
  CopyName(name, span.name);
  span.begin_ns = begin_ns;
  span.end_ns = end_ns;
  Record(lane, span);
}

std::vector<TraceSpan> TraceSink::Spans() const {
  std::vector<TraceSpan> out;
  for (const auto& lane : lanes_) {
    MutexLock lock(lane->mutex);
    // Ring order does not matter here: the final sort is by time.
    out.insert(out.end(), lane->ring.begin(), lane->ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
              if (a.lane != b.lane) return a.lane < b.lane;
              return a.end_ns < b.end_ns;
            });
  return out;
}

std::size_t TraceSink::dropped() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) {
    MutexLock lock(lane->mutex);
    total += lane->dropped;
  }
  return total;
}

std::string TraceSink::ToJson() const {
  const std::vector<TraceSpan> spans = Spans();
  std::string out;
  out.reserve(64 + spans.size() * 96);
  out += "{\"lanes\": " + std::to_string(lanes_.size());
  out += ", \"capacity\": " + std::to_string(capacity_);
  out += ", \"dropped\": " + std::to_string(dropped());
  out += ", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    if (i != 0) out += ", ";
    out += "\n  {\"lane\": " + std::to_string(s.lane);
    out += ", \"kind\": ";
    out += s.kind == TraceSpan::Kind::kSteal ? "\"steal\"" : "\"task\"";
    out += ", \"name\": ";
    AppendJsonString(s.name, &out);
    out += ", \"begin_ns\": " + std::to_string(s.begin_ns);
    out += ", \"end_ns\": " + std::to_string(s.end_ns);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

Status TraceSink::WriteJson(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::IOError("sched: cannot open trace output '" + path + "'");
  }
  const std::string json = ToJson();
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  file.flush();
  if (!file) {
    return Status::IOError("sched: short write to trace output '" + path +
                           "'");
  }
  return Status::OK();
}

void TraceSink::Clear() {
  for (const auto& lane : lanes_) {
    MutexLock lock(lane->mutex);
    lane->ring.clear();
    lane->next = 0;
    lane->dropped = 0;
  }
}

}  // namespace sitm::sched
