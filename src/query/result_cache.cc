#include "query/result_cache.h"

#include <sstream>

namespace sitm::query {

QueryResultCache::QueryResultCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), blocks_(kBlockBudgetBytes) {}

bool QueryResultCache::Cacheable(const Query& query) {
  return query.episodes.empty() && query.projection != Projection::kTopK;
}

std::string QueryResultCache::Key(const Query& query,
                                  const Predicate& bound_where,
                                  const Predicate& bound_tuple_where,
                                  const storage::EventStoreReader& reader) {
  std::ostringstream out;
  out << reader.trailer_checksum() << '/' << reader.file_bytes() << '/'
      << static_cast<int>(query.projection) << '/'
      << bound_where.CanonicalKey() << '/'
      << bound_tuple_where.CanonicalKey() << '/';
  // The episode filter only shapes kEpisodes output, but keying it
  // unconditionally is free and keeps Key() projection-agnostic.
  out << query.episode_filter.label.size() << ':'
      << query.episode_filter.label;
  if (query.episode_filter.allen.has_value()) {
    out << '/' << query.episode_filter.allen->mask.ToString() << ','
        << query.episode_filter.allen->probe.start().seconds_since_epoch()
        << ','
        << query.episode_filter.allen->probe.end().seconds_since_epoch();
  }
  return out.str();
}

std::optional<QueryResult> QueryResultCache::Lookup(const std::string& key) {
  MutexLock lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    stats_.misses += 1;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  stats_.hits += 1;
  return it->second->second;
}

void QueryResultCache::Insert(const std::string& key,
                              const QueryResult& result) {
  MutexLock lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = result;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, result);
  index_.emplace(key, lru_.begin());
  stats_.inserts += 1;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    stats_.evictions += 1;
  }
}

std::size_t QueryResultCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

QueryResultCache::Stats QueryResultCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void QueryResultCache::Clear() {
  {
    MutexLock lock(mu_);
    lru_.clear();
    index_.clear();
  }
  blocks_.Clear();
}

}  // namespace sitm::query
