#include "live/segment_store.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "storage/store_set.h"

namespace sitm::live {

SegmentStore::SegmentStore(SegmentStoreOptions options)
    : options_(std::move(options)) {}

SegmentStore::~SegmentStore() {
  const Status status = Close();
  (void)status;  // destructor cannot report; Close() explicitly to observe
}

Status SegmentStore::Append(
    std::vector<core::SemanticTrajectory> trajectories) {
  if (trajectories.empty()) return Status::OK();
  for (const core::SemanticTrajectory& t : trajectories) {
    // The writer's check, up front: a snapshot ranks the tail by start
    // time, and a seal must never fail on data it cannot hand back.
    if (const Result<Timestamp> start = t.trace().StartTime(); !start.ok()) {
      return start.status().WithContext(
          "SegmentStore: refusing to append trajectory #" +
          std::to_string(t.id().value()));
    }
  }
  {
    MutexLock lock(mutex_);
    pending_trajectories_ += trajectories.size();
    pending_.push_back(
        std::make_shared<const std::vector<core::SemanticTrajectory>>(
            std::move(trajectories)));
    if (options_.seal_trajectories == 0 ||
        pending_trajectories_ < options_.seal_trajectories) {
      return Status::OK();
    }
  }
  return Flush();
}

Status SegmentStore::Flush() {
  std::vector<storage::TrajectoryBatch> batches;
  std::uint64_t sequence = 0;
  {
    MutexLock lock(mutex_);
    if (pending_.empty()) return Status::OK();
    batches = std::move(pending_);
    pending_.clear();
    pending_trajectories_ = 0;
    sealing_ = batches;
    sequence = next_sequence_++;
  }
  // IO strictly outside the lock; the batches stay Snapshot-visible via
  // the sealing_ holding list the whole time. One writer Append for the
  // whole seal: each Append closes its own last block.
  std::vector<core::SemanticTrajectory> sealed;
  for (const storage::TrajectoryBatch& batch : batches) {
    sealed.insert(sealed.end(), batch->begin(), batch->end());
  }
  Result<std::shared_ptr<Segment>> segment = WriteSegment(sealed, 0, sequence);

  bool claimed = false;
  CompactionJob job;
  {
    MutexLock lock(mutex_);
    sealing_.clear();
    if (!segment.ok()) {
      // Put the data back so a failed seal loses nothing; the next seal
      // retries it.
      pending_.insert(pending_.begin(), batches.begin(), batches.end());
      pending_trajectories_ += sealed.size();
    } else {
      const std::shared_ptr<Segment>& seg = segment.value();
      logical_bytes_ += seg->bytes;
      written_bytes_ += seg->bytes;
      segments_.push_back(seg);
      ranks_.reset();
      claimed = MaybeClaimCompactionLocked(&job);
      idle_.NotifyAll();
    }
  }
  if (!segment.ok()) return segment.status();
  if (claimed) DispatchCompaction(std::move(job));
  return Status::OK();
}

Result<std::shared_ptr<SegmentStore::Segment>> SegmentStore::WriteSegment(
    const std::vector<core::SemanticTrajectory>& batch, int level,
    std::uint64_t sequence) {
  // Idempotent; a real failure surfaces as Create() failing below.
  ::mkdir(options_.directory.c_str(), 0775);
  // "seg-L<level>-<sequence>.evst": the sequence is store-global and
  // strictly increasing, so names never collide.
  char name[64];
  std::snprintf(name, sizeof(name), "seg-L%d-%06" PRIu64 ".evst", level,
                sequence);
  const std::string path = options_.directory + "/" + name;
  SITM_ASSIGN_OR_RETURN(
      storage::EventStoreWriter writer,
      storage::EventStoreWriter::Create(
          path, storage::StoreKind::kTrajectories, options_.writer));
  SITM_RETURN_IF_ERROR(writer.Append(batch));
  SITM_RETURN_IF_ERROR(writer.Finish());
  SITM_ASSIGN_OR_RETURN(storage::EventStoreReader reader,
                        storage::EventStoreReader::Open(path));
  auto segment = std::make_shared<Segment>();
  segment->path = path;
  segment->level = level;
  segment->sequence = sequence;
  segment->bytes = writer.stats().file_bytes;
  segment->reader =
      std::make_shared<const storage::EventStoreReader>(std::move(reader));
  segment->keys = storage::SortedKeys(batch);
  return segment;
}

bool SegmentStore::MaybeClaimCompactionLocked(CompactionJob* job) {
  if (options_.compaction_fanin < 2) return false;
  std::map<int, std::vector<std::shared_ptr<Segment>>> by_level;
  for (const std::shared_ptr<Segment>& seg : segments_) {
    if (!seg->compacting) by_level[seg->level].push_back(seg);
  }
  for (auto& [level, ready] : by_level) {
    if (ready.size() < options_.compaction_fanin) continue;
    job->inputs.assign(
        ready.begin(),
        ready.begin() + static_cast<std::ptrdiff_t>(options_.compaction_fanin));
    job->output_level = level + 1;
    for (const std::shared_ptr<Segment>& seg : job->inputs) {
      seg->compacting = true;
    }
    ++in_flight_;
    return true;
  }
  return false;
}

void SegmentStore::DispatchCompaction(CompactionJob job) {
  if (options_.runner == nullptr) {
    CompactLoop(std::move(job));
    return;
  }
  // Detached: the worker owns the merge; Close() joins via in_flight_.
  options_.runner->Submit(
      Task{"live/compact", [this, job] { CompactLoop(job); }});
}

void SegmentStore::CompactLoop(CompactionJob job) {
  CompactionJob current = std::move(job);
  while (true) {
    bool has_next = false;
    CompactionJob next;
    const Status status = CompactOnce(current, &has_next, &next);
    {
      MutexLock lock(mutex_);
      if (!status.ok()) {
        if (background_error_.ok()) background_error_ = status;
        // Release the claim so the inputs stay usable (the merge failed
        // before the manifest swap — they are all still listed).
        for (const std::shared_ptr<Segment>& seg : current.inputs) {
          seg->compacting = false;
        }
        has_next = false;
      }
      --in_flight_;
      idle_.NotifyAll();
    }
    if (!has_next) return;
    current = std::move(next);
  }
}

Status SegmentStore::CompactOnce(CompactionJob job, bool* has_next,
                                 CompactionJob* next) {
  // Read every input in manifest order (IO off-lock; claimed inputs are
  // immutable and cannot be unlinked under us).
  std::vector<core::SemanticTrajectory> merged;
  for (const std::shared_ptr<Segment>& seg : job.inputs) {
    SITM_ASSIGN_OR_RETURN(std::vector<core::SemanticTrajectory> part,
                          seg->reader->ReadTrajectories({}));
    std::move(part.begin(), part.end(), std::back_inserter(merged));
  }
  // Time-cluster the output: sorted by (start, object), block min/max
  // time windows stay tight and query pushdown keeps pruning after any
  // number of merge generations. (object, start) is unique across the
  // store, so this order is total and deterministic.
  std::sort(merged.begin(), merged.end(),
            [](const core::SemanticTrajectory& a,
               const core::SemanticTrajectory& b) {
              if (a.start() != b.start()) return a.start() < b.start();
              return a.object().value() < b.object().value();
            });

  std::uint64_t sequence = 0;
  {
    MutexLock lock(mutex_);
    sequence = next_sequence_++;
  }
  SITM_ASSIGN_OR_RETURN(
      std::shared_ptr<Segment> output,
      WriteSegment(merged, job.output_level, sequence));

  std::vector<std::string> obsolete;
  obsolete.reserve(job.inputs.size());
  {
    MutexLock lock(mutex_);
    for (const std::shared_ptr<Segment>& input : job.inputs) {
      obsolete.push_back(input->path);
      segments_.erase(
          std::remove_if(segments_.begin(), segments_.end(),
                         [&](const std::shared_ptr<Segment>& s) {
                           return s == input;
                         }),
          segments_.end());
    }
    segments_.push_back(output);
    ranks_.reset();
    ++compactions_;
    written_bytes_ += output->bytes;
    *has_next = MaybeClaimCompactionLocked(next);
    idle_.NotifyAll();
  }
  // Unlink off-lock. Open readers (snapshots) keep the unlinked files
  // readable until released — POSIX semantics the snapshot relies on.
  for (const std::string& path : obsolete) {
    std::remove(path.c_str());
  }
  return Status::OK();
}

Status SegmentStore::CompactAll() {
  SITM_RETURN_IF_ERROR(Flush());
  CompactionJob job;
  {
    MutexLock lock(mutex_);
    while (in_flight_ != 0) idle_.Wait(lock);
    SITM_RETURN_IF_ERROR(background_error_);
    if (segments_.size() <= 1) return Status::OK();
    for (const std::shared_ptr<Segment>& seg : segments_) {
      seg->compacting = true;
      job.inputs.push_back(seg);
      job.output_level = std::max(job.output_level, seg->level);
    }
    job.output_level += 1;
    ++in_flight_;
  }
  CompactLoop(std::move(job));
  MutexLock lock(mutex_);
  return background_error_;
}

Result<storage::StoreSet> SegmentStore::Snapshot(TrajectoryId first_id) const {
  std::vector<std::shared_ptr<Segment>> segs;
  std::vector<storage::TrajectoryBatch> tail;
  std::shared_ptr<const storage::SealedRanks> ranks;
  {
    MutexLock lock(mutex_);
    segs = segments_;
    tail = sealing_;
    tail.insert(tail.end(), pending_.begin(), pending_.end());
    ranks = ranks_;
  }
  if (!ranks) {
    // First snapshot of this manifest: merge off-lock, and publish unless
    // the manifest moved on meanwhile.
    std::vector<const std::vector<storage::TrajectoryKey>*> sorted;
    for (const std::shared_ptr<Segment>& seg : segs) {
      sorted.push_back(&seg->keys);
    }
    ranks = std::make_shared<const storage::SealedRanks>(
        storage::RankSegments(sorted));
    MutexLock lock(mutex_);
    if (segments_ == segs) ranks_ = ranks;
  }
  std::vector<storage::StoreSetSegment> segments;
  for (const std::shared_ptr<Segment>& seg : segs) {
    segments.push_back({seg->reader});
  }
  storage::StoreSet set = storage::StoreSet::Make(
      first_id, std::move(segments), std::move(ranks), std::move(tail));
  SITM_RETURN_IF_ERROR(set.Validate());
  return set;
}

SegmentStoreStats SegmentStore::stats() const {
  MutexLock lock(mutex_);
  SegmentStoreStats out;
  out.segments = segments_.size();
  out.pending_trajectories = pending_trajectories_;
  for (const auto& batch : sealing_) out.pending_trajectories += batch->size();
  for (const std::shared_ptr<Segment>& seg : segments_) {
    out.sealed_trajectories += seg->keys.size();
    out.segment_bytes += seg->bytes;
    out.max_level = std::max(out.max_level, seg->level);
    if (static_cast<std::size_t>(seg->level) >=
        out.segments_per_level.size()) {
      out.segments_per_level.resize(static_cast<std::size_t>(seg->level) + 1);
    }
    ++out.segments_per_level[static_cast<std::size_t>(seg->level)];
  }
  out.compactions = compactions_;
  out.logical_bytes = logical_bytes_;
  out.written_bytes = written_bytes_;
  return out;
}

Status SegmentStore::Close() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) idle_.Wait(lock);
  return background_error_;
}

}  // namespace sitm::live
