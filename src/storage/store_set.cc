#include "storage/store_set.h"

#include <algorithm>
#include <tuple>

namespace sitm::storage {

namespace {

TrajectoryKey KeyOf(const core::SemanticTrajectory& t, std::uint64_t ordinal) {
  return {t.object().value(), t.start().seconds_since_epoch(), ordinal};
}

bool ObjectStartLess(const TrajectoryKey& a, const TrajectoryKey& b) {
  return std::tie(a.object, a.start) < std::tie(b.object, b.start);
}

}  // namespace

std::vector<TrajectoryKey> SortedKeys(
    const std::vector<core::SemanticTrajectory>& trajectories) {
  std::vector<TrajectoryKey> keys;
  keys.reserve(trajectories.size());
  for (const core::SemanticTrajectory& t : trajectories) {
    keys.push_back(KeyOf(t, keys.size()));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

SealedRanks RankSegments(
    const std::vector<const std::vector<TrajectoryKey>*>& sorted) {
  SealedRanks out;
  for (const std::vector<TrajectoryKey>* keys : sorted) {
    const std::size_t base = out.keys.size();
    out.offsets.push_back(base);
    for (TrajectoryKey key : *keys) {
      key.ordinal += base;
      out.keys.push_back(key);
    }
    // Stable on equal (object, start): earlier segments stay first, and
    // each segment's own keys stay in ordinal order.
    std::inplace_merge(out.keys.begin(),
                       out.keys.begin() + static_cast<std::ptrdiff_t>(base),
                       out.keys.end(), ObjectStartLess);
  }
  out.offsets.push_back(out.keys.size());
  out.rank.resize(out.keys.size());
  for (std::size_t i = 0; i < out.keys.size(); ++i) {
    out.rank[out.keys[i].ordinal] = i;
  }
  return out;
}

StoreSet StoreSet::Make(TrajectoryId first_id,
                        std::vector<StoreSetSegment> segments,
                        std::shared_ptr<const SealedRanks> ranks,
                        std::vector<TrajectoryBatch> tail) {
  StoreSet set{std::move(segments), std::move(tail), first_id,
               std::move(ranks), {}};
  for (const TrajectoryBatch& batch : set.tail) {
    for (const core::SemanticTrajectory& t : *batch) {
      set.tail_keys.push_back(KeyOf(t, set.tail_keys.size()));
    }
  }
  std::sort(set.tail_keys.begin(), set.tail_keys.end());
  return set;
}

TrajectoryId StoreSet::CanonicalId(std::size_t source,
                                   const TrajectoryKey& key) const {
  // The tail sorts after every segment on equal (object, start).
  std::ptrdiff_t rank = 0;
  if (source < segments.size()) {
    rank = static_cast<std::ptrdiff_t>(
               ranks->rank[ranks->offsets[source] + key.ordinal]) +
           (std::lower_bound(tail_keys.begin(), tail_keys.end(), key,
                             ObjectStartLess) -
            tail_keys.begin());
  } else {
    rank = (std::upper_bound(ranks->keys.begin(), ranks->keys.end(), key,
                             ObjectStartLess) -
            ranks->keys.begin()) +
           (std::lower_bound(tail_keys.begin(), tail_keys.end(), key) -
            tail_keys.begin());
  }
  return TrajectoryId(first_id.value() + rank);
}

std::uint64_t StoreSet::TotalTrajectories() const {
  std::uint64_t total = tail_keys.size();
  for (const StoreSetSegment& segment : segments) {
    if (segment.reader) total += segment.reader->trajectories();
  }
  return total;
}

std::uint64_t StoreSet::TotalRows() const {
  std::uint64_t total = 0;
  for (const TrajectoryBatch& batch : tail) {
    for (const core::SemanticTrajectory& t : *batch) total += t.trace().size();
  }
  for (const StoreSetSegment& segment : segments) {
    if (segment.reader) total += segment.reader->rows();
  }
  return total;
}

std::uint64_t StoreSet::TotalBlocks() const {
  std::uint64_t total = 0;
  for (const StoreSetSegment& segment : segments) {
    if (segment.reader) total += segment.reader->num_blocks();
  }
  return total;
}

Status StoreSet::Validate() const {
  if (!ranks || ranks->offsets.size() != segments.size() + 1) {
    return Status::InvalidArgument("StoreSet: ranks do not match segments");
  }
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const StoreSetSegment& segment = segments[i];
    if (!segment.reader) {
      return Status::InvalidArgument("StoreSet: segment " + std::to_string(i) +
                                     " has no reader");
    }
    const std::uint64_t ranked = ranks->offsets[i + 1] - ranks->offsets[i];
    if (ranked != segment.reader->trajectories()) {
      return Status::InvalidArgument(
          "StoreSet: segment " + std::to_string(i) + " has " +
          std::to_string(ranked) + " ranks for " +
          std::to_string(segment.reader->trajectories()) + " trajectories");
    }
  }
  return Status::OK();
}

}  // namespace sitm::storage
