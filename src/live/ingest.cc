#include "live/ingest.h"

#include <cassert>
#include <string>
#include <utility>

namespace sitm::live {

namespace {

Status BadBatch(const std::string& message) {
  return Status::InvalidArgument("detection batch: " + message);
}

// Set on an object this file just built can only fail on a kind
// mismatch — a local programming error. Assert-consume the Status
// (same idiom as io/graph_export.cc; the lint forbids (void)-silencing).
void MustSet(io::JsonValue& object, std::string key, io::JsonValue value) {
  const Status status = object.Set(std::move(key), std::move(value));
  assert(status.ok());
  static_cast<void>(status);
}

/// A timestamp field: integer epoch seconds or a civil date-time
/// string. Every failure mode is InvalidArgument.
Result<Timestamp> ParseTime(const io::JsonValue& value, const char* field) {
  if (value.is_int()) {
    SITM_ASSIGN_OR_RETURN(const std::int64_t seconds, value.AsInt());
    return Timestamp(seconds);
  }
  if (value.is_string()) {
    SITM_ASSIGN_OR_RETURN(const std::string text, value.AsString());
    Result<Timestamp> parsed = Timestamp::Parse(text);
    if (!parsed.ok()) {
      return BadBatch(std::string(field) + " is not a valid timestamp: '" +
                      text + "'");
    }
    return *parsed;
  }
  return BadBatch(std::string(field) +
                  " must be epoch seconds or a date-time string");
}

Result<std::int64_t> ParseId(const io::JsonValue& value, const char* field) {
  if (!value.is_int()) {
    return BadBatch(std::string(field) + " must be an integer id");
  }
  SITM_ASSIGN_OR_RETURN(const std::int64_t id, value.AsInt());
  if (id < 0) {
    return BadBatch(std::string(field) + " must be non-negative");
  }
  return id;
}

Result<core::RawDetection> ParseDetection(const io::JsonValue& value,
                                          std::size_t index) {
  if (!value.is_object()) {
    return BadBatch("element " + std::to_string(index) +
                    " is not an object");
  }
  core::RawDetection detection;
  const struct {
    const char* key;
  } required[] = {{"object"}, {"cell"}, {"start"}, {"end"}};
  for (const auto& field : required) {
    Result<const io::JsonValue*> member = value.Get(field.key);
    if (!member.ok()) {
      return BadBatch("element " + std::to_string(index) +
                      " is missing '" + field.key + "'");
    }
  }
  SITM_ASSIGN_OR_RETURN(const io::JsonValue* object_v, value.Get("object"));
  SITM_ASSIGN_OR_RETURN(const io::JsonValue* cell_v, value.Get("cell"));
  SITM_ASSIGN_OR_RETURN(const io::JsonValue* start_v, value.Get("start"));
  SITM_ASSIGN_OR_RETURN(const io::JsonValue* end_v, value.Get("end"));
  SITM_ASSIGN_OR_RETURN(const std::int64_t object, ParseId(*object_v, "object"));
  SITM_ASSIGN_OR_RETURN(const std::int64_t cell, ParseId(*cell_v, "cell"));
  detection.object = ObjectId(object);
  detection.cell = CellId(cell);
  SITM_ASSIGN_OR_RETURN(detection.start, ParseTime(*start_v, "start"));
  SITM_ASSIGN_OR_RETURN(detection.end, ParseTime(*end_v, "end"));
  return detection;
}

}  // namespace

Result<std::vector<core::RawDetection>> ParseDetectionBatch(
    std::string_view body) {
  Result<io::JsonValue> document = io::JsonValue::Parse(body);
  if (!document.ok()) {
    // The parser reports Corruption with an offset; the ingest contract
    // is InvalidArgument for every bad body.
    return BadBatch(document.status().message());
  }
  const io::JsonValue* array_holder = &document.value();
  if (document->is_object()) {
    Result<const io::JsonValue*> member = document->Get("detections");
    if (!member.ok()) {
      return BadBatch("top-level object has no 'detections' array");
    }
    array_holder = *member;
  }
  if (!array_holder->is_array()) {
    return BadBatch("expected an array of detections");
  }
  SITM_ASSIGN_OR_RETURN(const io::JsonValue::Array* elements,
                        array_holder->AsArray());
  std::vector<core::RawDetection> out;
  out.reserve(elements->size());
  for (std::size_t i = 0; i < elements->size(); ++i) {
    SITM_ASSIGN_OR_RETURN(core::RawDetection detection,
                          ParseDetection((*elements)[i], i));
    out.push_back(detection);
  }
  return out;
}

io::JsonValue RenderStats(const IncrementalStats& builder,
                          const SegmentStoreStats& store) {
  io::JsonValue doc{io::JsonValue::Object{}};
  io::JsonValue b{io::JsonValue::Object{}};
  if (builder.has_watermark) {
    MustSet(b, "watermark", builder.watermark.seconds_since_epoch());
  } else {
    MustSet(b, "watermark", nullptr);
  }
  MustSet(b, "records_in", static_cast<std::int64_t>(builder.records_in));
  MustSet(b, "late_dropped", static_cast<std::int64_t>(builder.late_dropped));
  MustSet(b, "retired_objects",
          static_cast<std::int64_t>(builder.retired_objects));
  MustSet(b, "finalized", static_cast<std::int64_t>(builder.finalized));
  MustSet(b, "objects_swept",
          static_cast<std::int64_t>(builder.objects_swept));
  MustSet(b, "open_objects", static_cast<std::int64_t>(builder.open_objects));
  MustSet(b, "buffered_detections",
          static_cast<std::int64_t>(builder.buffered_detections));
  MustSet(b, "peak_open_objects",
          static_cast<std::int64_t>(builder.peak_open_objects));
  MustSet(b, "peak_buffered_detections",
          static_cast<std::int64_t>(builder.peak_buffered_detections));
  io::JsonValue cleaning{io::JsonValue::Object{}};
  MustSet(cleaning, "zero_duration_dropped",
          static_cast<std::int64_t>(builder.build.zero_duration_dropped));
  MustSet(cleaning, "contained_dropped",
          static_cast<std::int64_t>(builder.build.contained_dropped));
  MustSet(cleaning, "overlaps_clipped",
          static_cast<std::int64_t>(builder.build.overlaps_clipped));
  MustSet(cleaning, "graph_inconsistent_dropped",
          static_cast<std::int64_t>(builder.build.graph_inconsistent_dropped));
  MustSet(cleaning, "merged_same_cell",
          static_cast<std::int64_t>(builder.build.merged_same_cell));
  MustSet(b, "cleaning", std::move(cleaning));
  MustSet(doc, "builder", std::move(b));

  io::JsonValue s{io::JsonValue::Object{}};
  MustSet(s, "segments", static_cast<std::int64_t>(store.segments));
  MustSet(s, "pending_trajectories",
          static_cast<std::int64_t>(store.pending_trajectories));
  MustSet(s, "sealed_trajectories",
          static_cast<std::int64_t>(store.sealed_trajectories));
  MustSet(s, "compactions", static_cast<std::int64_t>(store.compactions));
  MustSet(s, "segment_bytes", static_cast<std::int64_t>(store.segment_bytes));
  MustSet(s, "logical_bytes", static_cast<std::int64_t>(store.logical_bytes));
  MustSet(s, "written_bytes", static_cast<std::int64_t>(store.written_bytes));
  MustSet(s, "max_level", store.max_level);
  io::JsonValue levels{io::JsonValue::Array{}};
  for (const std::size_t count : store.segments_per_level) {
    const Status status = levels.Append(static_cast<std::int64_t>(count));
    assert(status.ok());
    static_cast<void>(status);
  }
  MustSet(s, "segments_per_level", std::move(levels));
  MustSet(doc, "store", std::move(s));
  return doc;
}

}  // namespace sitm::live
