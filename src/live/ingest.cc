#include "live/ingest.h"

#include <string>
#include <utility>

namespace sitm::live {

namespace {

Status BadBatch(const std::string& message) {
  return Status::InvalidArgument("detection batch: " + message);
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
  const auto count = [](std::uint64_t n) {
    return io::JsonValue(static_cast<std::int64_t>(n));
  };
  io::JsonValue::Array levels;
  for (const std::size_t n : store.segments_per_level) {
    levels.push_back(count(n));
  }
  return io::JsonValue::Object{
      {"builder",
       io::JsonValue::Object{
           {"watermark",
            builder.has_watermark
                ? io::JsonValue(builder.watermark.seconds_since_epoch())
                : io::JsonValue(nullptr)},
           {"records_in", count(builder.records_in)},
           {"late_dropped", count(builder.late_dropped)},
           {"retired_objects", count(builder.retired_objects)},
           {"finalized", count(builder.finalized)},
           {"objects_swept", count(builder.objects_swept)},
           {"open_objects", count(builder.open_objects)},
           {"buffered_detections", count(builder.buffered_detections)},
           {"peak_open_objects", count(builder.peak_open_objects)},
           {"peak_buffered_detections",
            count(builder.peak_buffered_detections)},
           {"cleaning",
            io::JsonValue::Object{
                {"zero_duration_dropped",
                 count(builder.build.zero_duration_dropped)},
                {"contained_dropped", count(builder.build.contained_dropped)},
                {"overlaps_clipped", count(builder.build.overlaps_clipped)},
                {"graph_inconsistent_dropped",
                 count(builder.build.graph_inconsistent_dropped)},
                {"merged_same_cell", count(builder.build.merged_same_cell)},
            }},
       }},
      {"store",
       io::JsonValue::Object{
           {"segments", count(store.segments)},
           {"pending_trajectories", count(store.pending_trajectories)},
           {"sealed_trajectories", count(store.sealed_trajectories)},
           {"compactions", count(store.compactions)},
           {"segment_bytes", count(store.segment_bytes)},
           {"logical_bytes", count(store.logical_bytes)},
           {"written_bytes", count(store.written_bytes)},
           {"max_level", store.max_level},
           {"segments_per_level", std::move(levels)},
       }},
  };
}

}  // namespace sitm::live
