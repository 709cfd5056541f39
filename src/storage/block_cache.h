#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "base/mutex.h"
#include "base/result.h"
#include "base/thread_annotations.h"
#include "storage/event_store.h"

namespace sitm::storage {

/// \brief An LRU of decoded, fully checked store blocks under one byte
/// budget, so repeated queries over one finished store decode each
/// block once instead of once per query.
///
/// Keyed on the store's content identity — its trailer checksum and
/// file size, the pair a query-result cache key pins (see
/// EventStoreReader::trailer_checksum) — and the block index. Finished
/// stores are immutable and DecodeBlock's result depends on the block's
/// bytes only, so a resident block is exactly what a cold decode of any
/// reader of the same contents would return, and two stores with
/// different contents never share an entry. The trailer checksum is not
/// cryptographic, so a forged store can collide with another's key; a
/// resident block whose dictionary size differs from the fetching
/// reader's is then a miss, and the reader's own decode is returned but
/// not kept (ScanBlock refuses such a block too).
///
/// A failed decode is never kept: a faulty block is refused on every
/// touch with DecodeBlock's own error. A block larger than the budget is
/// returned to its caller but not kept. Resident bytes
/// (DecodedBlock::resident_bytes summed) never exceed the budget.
///
/// Thread-safety: one sitm::Mutex guards the list, its index and the
/// counters; decoding runs off-lock. Two threads missing the same block
/// both decode it, and the first insert wins: the later one returns the
/// resident block and drops its own. Entries are shared_ptr<const>, so
/// an evicted block stays valid for the scans still holding it.
class BlockCache {
 public:
  /// Counters since construction (monotonic; read via stats()).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
  };

  explicit BlockCache(std::size_t budget_bytes) : budget_(budget_bytes) {}

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Block `i` of `reader`, decoded and checked: the resident block on a
  /// hit, otherwise reader.DecodeBlock(i), kept when it succeeds and
  /// fits the budget.
  [[nodiscard]] Result<std::shared_ptr<const DecodedBlock>> Fetch(
      const EventStoreReader& reader, std::size_t i);

  std::size_t resident_bytes() const;
  /// Resident blocks.
  std::size_t size() const;
  Stats stats() const;
  /// Drops every resident block (counters keep counting).
  void Clear();

 private:
  struct Key {
    std::uint64_t trailer_checksum = 0;
    std::uint64_t file_bytes = 0;
    std::size_t block = 0;
    bool operator==(const Key& other) const {
      return trailer_checksum == other.trailer_checksum &&
             file_bytes == other.file_bytes && block == other.block;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };
  using Entry = std::pair<Key, std::shared_ptr<const DecodedBlock>>;

  const std::size_t budget_;
  mutable Mutex mu_;
  /// Most recent first; the index points into the list.
  std::list<Entry> lru_ SITM_GUARDED_BY(mu_);
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_
      SITM_GUARDED_BY(mu_);
  std::size_t resident_ SITM_GUARDED_BY(mu_) = 0;
  Stats stats_ SITM_GUARDED_BY(mu_);
};

}  // namespace sitm::storage
