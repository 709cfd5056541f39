#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/result.h"
#include "base/task_runner.h"
#include "base/thread_annotations.h"
#include "core/trajectory.h"
#include "storage/event_store.h"
#include "storage/store_set.h"

namespace sitm::live {

/// Rolling-segment store knobs.
struct SegmentStoreOptions {
  /// Directory holding the segment files (created if missing).
  std::string directory;
  /// Seal the pending buffer into a fresh L0 segment once it holds this
  /// many trajectories (0 disables size-triggered sealing; Flush()
  /// still seals on demand).
  std::size_t seal_trajectories = 512;
  /// Compact a level once it holds this many segments (the merge fans
  /// this many inputs into one segment of the next level; < 2 disables
  /// compaction).
  std::size_t compaction_fanin = 4;
  /// Segment writer options (block size, encoding executor).
  storage::WriterOptions writer;
  /// Runner for background compaction (borrowed; null compacts inline
  /// on the thread that sealed the triggering segment).
  TaskRunner* runner = nullptr;
};

/// Point-in-time counters (compaction amplification = written_bytes /
/// logical_bytes once everything is sealed).
struct SegmentStoreStats {
  std::size_t segments = 0;
  std::size_t pending_trajectories = 0;
  std::uint64_t sealed_trajectories = 0;
  std::uint64_t compactions = 0;
  /// Bytes currently on disk across live segments.
  std::uint64_t segment_bytes = 0;
  /// Bytes written as fresh L0 seals (the logical ingest volume).
  std::uint64_t logical_bytes = 0;
  /// All segment bytes ever written, compaction rewrites included.
  std::uint64_t written_bytes = 0;
  int max_level = 0;
  /// Segment count per compaction level (index = level).
  std::vector<std::size_t> segments_per_level;
};

/// \brief Rolling EventStore segments with background compaction: the
/// persistence half of the live ingest subsystem.
///
/// Finalized trajectories append into an in-memory pending buffer;
/// once its unclaimed part reaches `seal_trajectories` it is sealed
/// into a small L0 EventStore file (v3 writer — same format and
/// pushdown metadata as batch stores). When a level accumulates
/// `compaction_fanin` segments, a background task (on `runner`, via
/// detached TaskRunner::Submit) merges them — sorted by (start time,
/// object) so compacted segments are time-clustered and block pruning
/// stays effective — into one segment of the next level, then unlinks
/// the inputs. Snapshots taken mid-compaction stay valid: they share
/// the replaced readers, and POSIX keeps an unlinked mapped file
/// readable until the last reader closes.
///
/// Seals are ordered here: a seal claims the front batches of the
/// pending buffer in place, writes them with no lock held, and one
/// install step (shared with compaction merges) then drops exactly
/// those batches and lists the new segment. At most one seal writes at
/// a time — the claim is the baton — and a failed write leaves the
/// buffer as it was, so the next seal retries it. Until its install,
/// a sealing batch stays in the buffer and every Snapshot() sees it.
///
/// Segments persist the builder's *provisional* trajectory ids. Each
/// keeps its keys sorted from when it was written, and the pending tail
/// is a list of immutable shared batches, so Snapshot() copies pointers;
/// queries derive canonical ids per emitted row (storage::StoreSet),
/// so answers do not depend on which of two writers appended first.
///
/// Threading: every method is safe to call from any thread,
/// concurrently with every other.
class SegmentStore {
 public:
  explicit SegmentStore(SegmentStoreOptions options);
  /// Close()s; any background-compaction error is lost here — call
  /// Close() explicitly to observe it.
  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Appends finalized trajectories; seals a segment (and possibly
  /// schedules compaction) when the unclaimed part of the pending
  /// buffer fills, first waiting out a seal already in flight. A
  /// trajectory with an empty trace fails the call with
  /// InvalidArgument, and nothing from the call is buffered.
  [[nodiscard]] Status Append(std::vector<core::SemanticTrajectory> trajectories);

  /// Seals the pending buffer regardless of size (no-op when empty).
  /// Waits out a seal in flight first, so everything appended before
  /// the call is sealed when it returns OK.
  [[nodiscard]] Status Flush();

  /// Synchronously merges EVERYTHING (after waiting out in-flight
  /// background compactions) into a single segment — the deterministic
  /// end-state the bench artifacts and store-size baselines pin.
  [[nodiscard]] Status CompactAll();

  /// Consistent queryable view: every sealed segment plus the pending
  /// tail, numbering trajectories from `first_id` by global (object,
  /// start) rank — exactly the ids a batch build of the same detections
  /// would carry. Copies pointers only; the sealed ranks are rebuilt
  /// once per manifest change, outside the lock.
  [[nodiscard]] Result<storage::StoreSet> Snapshot(TrajectoryId first_id) const;

  SegmentStoreStats stats() const;

  /// Waits for the seal and the compactions in flight and reports the
  /// first background error, if any. Does not seal the pending buffer.
  /// Idempotent.
  [[nodiscard]] Status Close();

 private:
  /// One sealed segment in the manifest.
  struct Segment {
    std::string path;
    int level = 0;
    std::uint64_t sequence = 0;
    std::uint64_t bytes = 0;
    std::shared_ptr<const storage::EventStoreReader> reader;
    /// Every trajectory's key, sorted (storage::SortedKeys) —
    /// everything Snapshot needs to rank without reading the file.
    std::vector<storage::TrajectoryKey> keys;
    /// Claimed by an in-flight compaction (invisible to new triggers).
    bool compacting = false;
  };
  /// One scheduled merge: the claimed inputs and the output level.
  struct CompactionJob {
    std::vector<std::shared_ptr<Segment>> inputs;
    int output_level = 0;
  };

  /// Waits out the seal in flight, then seals the whole pending buffer
  /// if it holds at least `at_least` (>= 1) trajectories.
  [[nodiscard]] Status Seal(std::size_t at_least);
  /// Writes `batch` as a new segment file and opens it. Pure IO — no
  /// locks held (the project lint forbids store writes under a lock).
  [[nodiscard]] Result<std::shared_ptr<Segment>> WriteSegment(
      const std::vector<core::SemanticTrajectory>& batch, int level,
      std::uint64_t sequence);
  /// Reads, time-sorts and writes the inputs of `job` as one segment.
  [[nodiscard]] Result<std::shared_ptr<Segment>> Merge(
      const CompactionJob& job);
  /// The one install step of seals and merges: lists `output` in place
  /// of `inputs` (none for a seal), resets the ranks, counts the bytes,
  /// claims the next ready merge into `*next` (returning whether it
  /// did) and wakes every waiter. A seal's caller drops the sealed
  /// batches from pending_ in the same critical section.
  bool InstallLocked(const std::vector<std::shared_ptr<Segment>>& inputs,
                     std::shared_ptr<Segment> output, CompactionJob* next)
      SITM_REQUIRES(mutex_);
  /// Claims a ready level merge, if any. Bumps in_flight_.
  bool MaybeClaimCompactionLocked(CompactionJob* job)
      SITM_REQUIRES(mutex_);
  /// Dispatches `job` to the runner (detached) or runs it inline.
  void DispatchCompaction(CompactionJob job);
  /// Merges and installs `job`, then each merge that install claims,
  /// unlinking the inputs. Errors land in background_error_.
  void CompactLoop(CompactionJob job);

  SegmentStoreOptions options_;
  mutable Mutex mutex_;
  /// Signaled when in_flight_ drops, a seal ends or segments change.
  mutable CondVar idle_;
  std::vector<std::shared_ptr<Segment>> segments_ SITM_GUARDED_BY(mutex_);
  /// Finalized, not yet sealed (the snapshot tail), one batch per Append.
  std::vector<storage::TrajectoryBatch> pending_ SITM_GUARDED_BY(mutex_);
  std::size_t pending_trajectories_ SITM_GUARDED_BY(mutex_) = 0;
  /// The seal baton: how many front batches of pending_, holding how
  /// many trajectories, the one seal in flight is writing (0 = none).
  std::size_t claimed_batches_ SITM_GUARDED_BY(mutex_) = 0;
  std::size_t claimed_trajectories_ SITM_GUARDED_BY(mutex_) = 0;
  /// Ranks of segments_, built by the first Snapshot() after each
  /// manifest change (which resets it) and shared by later ones.
  mutable std::shared_ptr<const storage::SealedRanks> ranks_
      SITM_GUARDED_BY(mutex_);
  std::uint64_t next_sequence_ SITM_GUARDED_BY(mutex_) = 0;
  std::size_t in_flight_ SITM_GUARDED_BY(mutex_) = 0;
  Status background_error_ SITM_GUARDED_BY(mutex_);
  std::uint64_t compactions_ SITM_GUARDED_BY(mutex_) = 0;
  std::uint64_t logical_bytes_ SITM_GUARDED_BY(mutex_) = 0;
  std::uint64_t written_bytes_ SITM_GUARDED_BY(mutex_) = 0;
};

}  // namespace sitm::live
