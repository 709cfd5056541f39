#include "storage/block_cache.h"

#include <iterator>

namespace sitm::storage {

std::size_t BlockCache::KeyHash::operator()(const Key& key) const {
  // The checksum is already a well-mixed FNV digest; fold in the size
  // and the index with odd multipliers.
  std::uint64_t h = key.trailer_checksum;
  h ^= key.file_bytes * 0x9E3779B97F4A7C15ull;
  h ^= static_cast<std::uint64_t>(key.block) * 0xC2B2AE3D27D4EB4Full;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

Result<std::shared_ptr<const DecodedBlock>> BlockCache::Fetch(
    const EventStoreReader& reader, std::size_t i) {
  const Key key{reader.trailer_checksum(), reader.file_bytes(), i};
  const std::size_t dictionary_size = reader.dictionary().size();
  {
    MutexLock lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end() &&
        it->second->second->dictionary_size == dictionary_size) {
      lru_.splice(lru_.begin(), lru_, it->second);
      stats_.hits += 1;
      return it->second->second;
    }
    stats_.misses += 1;
  }
  // Off-lock: a decode is the checksum, the LZ and every column.
  SITM_ASSIGN_OR_RETURN(std::shared_ptr<const DecodedBlock> block,
                        reader.DecodeBlock(i));
  if (block->resident_bytes > budget_) return block;
  // Evicted blocks are released after the lock, with this list.
  std::list<Entry> evicted;
  MutexLock lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // A colliding store's block keeps its slot; this one is not kept.
    if (it->second->second->dictionary_size != dictionary_size) return block;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  while (resident_ + block->resident_bytes > budget_) {
    index_.erase(lru_.back().first);
    resident_ -= lru_.back().second->resident_bytes;
    evicted.splice(evicted.begin(), lru_, std::prev(lru_.end()));
    stats_.evictions += 1;
  }
  lru_.emplace_front(key, block);
  index_.emplace(key, lru_.begin());
  resident_ += block->resident_bytes;
  stats_.inserts += 1;
  return block;
}

std::size_t BlockCache::resident_bytes() const {
  MutexLock lock(mu_);
  return resident_;
}

std::size_t BlockCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

BlockCache::Stats BlockCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void BlockCache::Clear() {
  std::list<Entry> dropped;
  MutexLock lock(mu_);
  dropped.swap(lru_);
  index_.clear();
  resident_ = 0;
}

}  // namespace sitm::storage
