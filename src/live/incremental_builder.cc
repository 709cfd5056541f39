#include "live/incremental_builder.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace sitm::live {
namespace {

/// t + d, clamped to the int64 range: an open trace's due key is never
/// later than the `watermark - end > session_gap` test it stands for.
Timestamp SaturatingAdd(Timestamp t, Duration d) {
  std::int64_t sum = 0;
  if (__builtin_add_overflow(t.seconds_since_epoch(), d.seconds(), &sum)) {
    sum = d.seconds() > 0 ? std::numeric_limits<std::int64_t>::max()
                          : std::numeric_limits<std::int64_t>::min();
  }
  return Timestamp(sum);
}

}  // namespace

IncrementalBuilder::IncrementalBuilder(IncrementalOptions options)
    : options_(std::move(options)), assembler_(options_.builder) {}

Status IncrementalBuilder::Ingest(
    const std::vector<core::RawDetection>& batch,
    std::vector<core::SemanticTrajectory>* finalized) {
  SITM_RETURN_IF_ERROR(options_.Validate());
  // All or nothing: check every detection before admitting any.
  for (const core::RawDetection& d : batch) {
    SITM_RETURN_IF_ERROR(core::CheckDetection(d, options_.builder));
  }
  stats_.records_in += batch.size();
  const std::size_t first = finalized->size();

  // Admission: lateness is judged against the watermark as of the
  // PREVIOUS batch — everything admitted here still sorts after every
  // already-consumed detection (consumed starts are strictly below
  // that watermark).
  for (const core::RawDetection& d : batch) {
    if (stats_.has_watermark && d.start < stats_.watermark) {
      ++stats_.late_dropped;
      continue;
    }
    const auto [it, tracked_anew] = objects_.try_emplace(d.object);
    ObjectState& state = it->second;
    if (tracked_anew) {
      // A retired object returns: hand back what the graph filter reads.
      if (auto retired = retired_last_kept_.extract(d.object)) {
        state.open.last_kept = retired.mapped();
      }
    }
    state.pending.push_back(d);
    // The open trace is unchanged, so the due key can only move earlier.
    SetDue(d.object, state,
           state.due ? std::min(*state.due, d.start) : d.start);
    ++stats_.buffered_detections;
    if (!has_max_start_ || d.start > max_start_) {
      has_max_start_ = true;
      max_start_ = d.start;
    }
  }

  // Peaks are sampled at the post-admission high-water point — the
  // moment the buffer is largest — not only after the sweep drains it.
  UpdateFootprint();

  if (has_max_start_) {
    // The watermark never regresses: max_start_ is monotone and the
    // lateness bound is fixed.
    stats_.watermark = max_start_ - options_.allowed_lateness;
    stats_.has_watermark = true;
  }

  // Watermark sweep: an object has work iff it holds a pending
  // detection starting below the watermark or an open trace gone stale
  // by time passing — iff its due key is below the watermark. The due
  // prefix of due_ is visited in id order for a deterministic
  // finalization sequence; every other object would consume and flush
  // nothing.
  if (stats_.has_watermark) {
    const std::vector<ObjectId> due =
        DueObjects(stats_.watermark, /*all=*/false);
    stats_.objects_swept += due.size();
    for (const ObjectId object : due) {
      ObjectState& state = objects_.find(object)->second;
      SITM_RETURN_IF_ERROR(ConsumeReady(object, state, stats_.watermark,
                                        /*consume_all=*/false, finalized));
      if (!state.open.trace.empty() &&
          stats_.watermark - state.open.trace.end() >
              options_.builder.session_gap) {
        // Any future admission starts at or after the watermark, so its
        // session gap from this trace is even larger (cleaning can only
        // move starts later): the batch builder splits here too.
        SITM_RETURN_IF_ERROR(assembler_.Flush(object, state.open, finalized));
      }
      RefreshDue(object, state);
      if (!state.due) {
        // Retirement (see the class comment).
        if (options_.builder.drop_graph_inconsistent &&
            options_.builder.graph != nullptr && state.open.last_kept) {
          retired_last_kept_.emplace(object, *state.open.last_kept);
        }
        objects_.erase(object);
        ++stats_.retired_objects;
      }
    }
  }
  return Finalize(first, finalized);
}

Status IncrementalBuilder::Drain(
    std::vector<core::SemanticTrajectory>* finalized) {
  SITM_RETURN_IF_ERROR(options_.Validate());
  const std::size_t first = finalized->size();
  for (const ObjectId object : DueObjects(Timestamp(), /*all=*/true)) {
    ObjectState& state = objects_.find(object)->second;
    SITM_RETURN_IF_ERROR(ConsumeReady(object, state, Timestamp(),
                                      /*consume_all=*/true, finalized));
    SITM_RETURN_IF_ERROR(assembler_.Flush(object, state.open, finalized));
  }
  objects_.clear();
  due_.clear();
  retired_last_kept_.clear();
  stats_.buffered_detections = 0;
  return Finalize(first, finalized);
}

Status IncrementalBuilder::ConsumeReady(
    ObjectId object, ObjectState& state, Timestamp watermark, bool consume_all,
    std::vector<core::SemanticTrajectory>* out) {
  if (state.pending.empty()) return Status::OK();
  std::sort(state.pending.begin(), state.pending.end(), core::DetectionBefore);

  std::size_t consumed = 0;
  while (consumed < state.pending.size() &&
         (consume_all || state.pending[consumed].start < watermark)) {
    SITM_RETURN_IF_ERROR(
        assembler_.Add(object, state.open, state.pending[consumed], out));
    ++consumed;
  }
  state.pending.erase(state.pending.begin(),
                      state.pending.begin() +
                          static_cast<std::ptrdiff_t>(consumed));
  stats_.buffered_detections -= consumed;
  return Status::OK();
}

std::vector<ObjectId> IncrementalBuilder::DueObjects(Timestamp watermark,
                                                    bool all) const {
  std::vector<ObjectId> objects;
  for (auto it = due_.begin();
       it != due_.end() && (all || it->first < watermark); ++it) {
    objects.push_back(it->second);
  }
  std::sort(objects.begin(), objects.end());
  return objects;
}

void IncrementalBuilder::SetDue(ObjectId object, ObjectState& state,
                                std::optional<Timestamp> due) {
  if (state.due == due) return;
  if (state.due) due_.erase({*state.due, object});
  state.due = due;
  if (due) due_.emplace(*due, object);
}

void IncrementalBuilder::RefreshDue(ObjectId object, ObjectState& state) {
  std::optional<Timestamp> due;
  if (!state.pending.empty()) due = state.pending.front().start;
  if (!state.open.trace.empty()) {
    const Timestamp stale = SaturatingAdd(state.open.trace.end(),
                                          options_.builder.session_gap);
    due = due ? std::min(*due, stale) : stale;
  }
  SetDue(object, state, due);
}

Status IncrementalBuilder::Finalize(
    std::size_t first, std::vector<core::SemanticTrajectory>* out) {
  core::EnrichmentReport enrichment;
  core::InferenceReport inference;
  for (std::size_t i = first; i < out->size(); ++i) {
    SITM_RETURN_IF_ERROR(options_.Apply(&(*out)[i], &enrichment, &inference));
  }
  stats_.finalized += out->size() - first;
  stats_.build = assembler_.report();
  UpdateFootprint();
  return Status::OK();
}

void IncrementalBuilder::UpdateFootprint() {
  stats_.open_objects = objects_.size();
  stats_.peak_open_objects =
      std::max(stats_.peak_open_objects, stats_.open_objects);
  stats_.peak_buffered_detections =
      std::max(stats_.peak_buffered_detections, stats_.buffered_detections);
}

}  // namespace sitm::live
