#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "query/executor.h"

namespace sitm::query {

/// \brief An in-memory LRU cache of store-backed query results.
///
/// Correct by construction: a finished EventStore is immutable, and the
/// cache key pins both the file's entire contents (trailer checksum +
/// byte size — see EventStoreReader::trailer_checksum) and the query's
/// full semantics (projection + the *bound* predicates' content-complete
/// CanonicalKey renderings). Two lookups with equal keys therefore
/// denote the same computation over the same bytes, and under the
/// engine's determinism contract that computation has exactly one
/// answer — so a hit is byte-identical (Fingerprint-equal) to a cold
/// execution at any worker count.
///
/// Not every query is cached: Cacheable() rejects queries with episode
/// specs and kTopK, and the executor runs them cold. The reason is the
/// slot cost, measured on perfbench's query_mix request sequence (seed
/// 11) replayed through a 64-entry LRU: caching episode queries lowered
/// the hit ratio from 0.34 to 0.33, and caching top-k as well to 0.32,
/// because their entries evict cheaper point and window results. (A
/// top-k key would also have to pin the probe's cell sequence and the
/// cost function, which Key() does not.)
///
/// Thread-safety: a single sitm::Mutex guards the LRU list and index;
/// every entry is returned by copy, so hits never alias cached state.
/// Lookup mutates recency, hence no shared/read lock tier.
class QueryResultCache {
 public:
  /// Counters since construction (monotonic; read via stats()).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
  };

  /// `capacity` = max cached results (>= 1; 0 is clamped to 1).
  explicit QueryResultCache(std::size_t capacity = 64);

  QueryResultCache(const QueryResultCache&) = delete;
  QueryResultCache& operator=(const QueryResultCache&) = delete;

  /// True when the query is worth a slot and Key() captures it: no
  /// episode extraction specs and not kTopK (see the class comment).
  static bool Cacheable(const Query& query);

  /// The cache key of `query` (with its predicates already bound —
  /// binding resolves symbolic spatial leaves, so the same source text
  /// bound against different contexts must not alias) over `reader`'s
  /// file. Only meaningful when Cacheable(query).
  static std::string Key(const Query& query, const Predicate& bound_where,
                         const Predicate& bound_tuple_where,
                         const storage::EventStoreReader& reader);

  /// Returns a copy of the cached result and refreshes its recency, or
  /// nullopt on a miss.
  std::optional<QueryResult> Lookup(const std::string& key);

  /// Caches `result` under `key`, evicting the least recently used
  /// entry past capacity. Re-inserting an existing key refreshes it.
  void Insert(const std::string& key, const QueryResult& result);

  std::size_t size() const;
  Stats stats() const;
  void Clear();

 private:
  using Entry = std::pair<std::string, QueryResult>;

  std::size_t capacity_;
  mutable Mutex mu_;
  /// Most recent first; the map points into the list.
  std::list<Entry> lru_ SITM_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      SITM_GUARDED_BY(mu_);
  Stats stats_ SITM_GUARDED_BY(mu_);
};

}  // namespace sitm::query
