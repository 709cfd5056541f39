#include "storage/columnar.h"

#include <cstring>
#include <utility>
#include <vector>

namespace sitm::storage {

std::uint64_t Checksum(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV 64 prime
  }
  return h;
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutVarint64(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void PutSVarint64(std::string& out, std::int64_t v) {
  PutVarint64(out, ZigZagEncode(v));
}

Result<std::uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) {
    return Status::Corruption("columnar: truncated u32 at offset " +
                              std::to_string(pos_));
  }
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(data_[pos_++]))
         << shift;
  }
  return v;
}

Result<std::uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) {
    return Status::Corruption("columnar: truncated u64 at offset " +
                              std::to_string(pos_));
  }
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_++]))
         << shift;
  }
  return v;
}

Result<std::uint64_t> ByteReader::ReadVarint64() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (empty()) {
      return Status::Corruption("columnar: truncated varint at offset " +
                                std::to_string(pos_));
    }
    const auto byte = static_cast<unsigned char>(data_[pos_++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte may only contribute the top bit of the value.
      if (shift == 63 && byte > 1) {
        return Status::Corruption("columnar: varint overflows 64 bits");
      }
      return v;
    }
  }
  return Status::Corruption("columnar: varint longer than 10 bytes");
}

Result<std::int64_t> ByteReader::ReadSVarint64() {
  SITM_ASSIGN_OR_RETURN(const std::uint64_t raw, ReadVarint64());
  return ZigZagDecode(raw);
}

Result<std::string_view> ByteReader::ReadBytes(std::size_t n) {
  if (remaining() < n) {
    return Status::Corruption("columnar: truncated byte run of " +
                              std::to_string(n) + " at offset " +
                              std::to_string(pos_));
  }
  std::string_view view(data_ + pos_, n);
  pos_ += n;
  return view;
}

void PutDeltaColumn(std::string& out, const std::int64_t* values,
                    std::size_t n) {
  // Deltas are computed mod 2^64 (unsigned, wrap-defined) so every
  // int64 pair round-trips exactly through the wrap-adding decoder —
  // including adjacent values at the two ends of the int64 range.
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::uint64_t>(values[i]);
    PutSVarint64(out, static_cast<std::int64_t>(u - previous));
    previous = u;
  }
}

Result<std::vector<std::int64_t>> ReadDeltaColumn(ByteReader& reader,
                                                  std::size_t n) {
  std::vector<std::int64_t> out(n);
  // Unsigned accumulation: crafted delta sequences that would overflow
  // int64 wrap deterministically instead of being UB (this decoder sees
  // untrusted bytes; later semantic validation rejects nonsense values).
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t raw = 0;
    if (!reader.TryReadVarint64(&raw)) {
      SITM_ASSIGN_OR_RETURN(raw, reader.ReadVarint64());
    }
    previous += static_cast<std::uint64_t>(ZigZagDecode(raw));
    out[i] = static_cast<std::int64_t>(previous);
  }
  return out;
}

void PutVarintColumn(std::string& out, const std::uint64_t* values,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) PutVarint64(out, values[i]);
}

Result<std::vector<std::uint64_t>> ReadVarintColumn(ByteReader& reader,
                                                    std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!reader.TryReadVarint64(&out[i])) {
      SITM_ASSIGN_OR_RETURN(out[i], reader.ReadVarint64());
    }
  }
  return out;
}

void PutBitColumn(std::string& out, const std::vector<bool>& values,
                  std::size_t begin, std::size_t end) {
  unsigned char byte = 0;
  int bit = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (values[i]) byte |= static_cast<unsigned char>(1u << bit);
    if (++bit == 8) {
      out.push_back(static_cast<char>(byte));
      byte = 0;
      bit = 0;
    }
  }
  if (bit != 0) out.push_back(static_cast<char>(byte));
}

Result<std::vector<bool>> ReadBitColumn(ByteReader& reader, std::size_t n) {
  SITM_ASSIGN_OR_RETURN(const std::string_view bytes,
                        reader.ReadBytes((n + 7) / 8));
  std::vector<bool> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto byte = static_cast<unsigned char>(bytes[i / 8]);
    out.push_back((byte >> (i % 8)) & 1u);
  }
  return out;
}

// ---------------------------------------------------------------------------
// LZ byte codec.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzMaxDistance = 1u << 16;
constexpr int kLzHashBits = 16;
constexpr int kLzMaxChain = 64;

std::uint32_t LzHash(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  // Multiplicative hash of the next 4 bytes (Fibonacci constant).
  return (v * 2654435761u) >> (32 - kLzHashBits);
}

}  // namespace

namespace {

/// Length of the common prefix of `a` and `b`, at most `limit`: eight
/// bytes per compare, the first differing byte found from the XOR.
std::size_t MatchLength(const char* a, const char* b, std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    std::uint64_t x = 0, y = 0;
    std::memcpy(&x, a + len, sizeof(x));
    std::memcpy(&y, b + len, sizeof(y));
    if (const std::uint64_t diff = x ^ y; diff != 0) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      return len + static_cast<std::size_t>(__builtin_clzll(diff)) / 8;
#else
      return len + static_cast<std::size_t>(__builtin_ctzll(diff)) / 8;
#endif
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// The match finder's tables, one set per thread and reused by every
/// CompressBytes call on it. A call stores positions offset by its own
/// base, and bases only grow, so entries left by earlier calls read as
/// "no candidate" without clearing 2^16 head slots per call.
/// Thread-safety: thread-local, so concurrent encoders (ParallelMap
/// workers compressing their own blocks) share nothing.
struct LzTables {
  std::vector<std::size_t> head =
      std::vector<std::size_t>(std::size_t{1} << kLzHashBits, 0);
  std::vector<std::size_t> prev;
  std::size_t next_base = 1;  // 0 never names a position
};

/// Hash-chained match finder: head[h] is the most recent position whose
/// 4-byte prefix hashed to h, prev[] threads earlier ones. Bounded
/// probing (kLzMaxChain) keeps compression O(n) while finding much
/// longer matches than a single-slot table on repetitive column bytes.
class LzMatcher {
 public:
  explicit LzMatcher(std::string_view input) : input_(input) {
    thread_local LzTables tables;
    tables_ = &tables;
    base_ = tables.next_base;
    tables.next_base += input.size();
    if (tables.prev.size() < input.size()) tables.prev.resize(input.size());
  }

  /// Longest match (>= kLzMinMatch) ending the probe at `pos`, as
  /// (length, distance); length 0 when none. Ties prefer the nearer
  /// candidate (shorter distance varint).
  std::pair<std::size_t, std::size_t> Find(std::size_t pos) const {
    std::size_t best_len = 0, best_dist = 0;
    std::size_t stored = tables_->head[LzHash(input_.data() + pos)];
    const std::size_t limit = input_.size() - pos;
    for (int probes = 0; probes < kLzMaxChain && stored >= base_;
         ++probes, stored = tables_->prev[stored - base_]) {
      const std::size_t candidate = stored - base_;
      if (pos - candidate > kLzMaxDistance) break;  // chain only ages
      // Cheap rejection: a longer match must agree at best_len too.
      if (best_len > 0 && (best_len >= limit ||
                           input_[candidate + best_len] !=
                               input_[pos + best_len])) {
        continue;
      }
      const std::size_t len =
          MatchLength(input_.data() + candidate, input_.data() + pos, limit);
      if (len >= kLzMinMatch && len > best_len) {
        best_len = len;
        best_dist = pos - candidate;
        if (len >= limit) break;  // cannot improve
      }
    }
    return {best_len, best_dist};
  }

  void Insert(std::size_t pos) {
    const std::uint32_t h = LzHash(input_.data() + pos);
    tables_->prev[pos] = tables_->head[h];
    tables_->head[h] = base_ + pos;
  }

 private:
  std::string_view input_;
  LzTables* tables_ = nullptr;
  std::size_t base_ = 0;
};

}  // namespace

std::string CompressBytes(std::string_view input) {
  std::string out;
  out.reserve(input.size() / 2 + 16);
  LzMatcher matcher(input);
  std::size_t pos = 0;
  std::size_t literal_start = 0;
  auto flush_literals = [&](std::size_t until) {
    PutVarint64(out, until - literal_start);
    out.append(input.data() + literal_start, until - literal_start);
  };
  while (pos + kLzMinMatch <= input.size()) {
    auto [len, dist] = matcher.Find(pos);
    matcher.Insert(pos);
    if (len == 0) {
      ++pos;
      continue;
    }
    // Lazy matching: when the very next position starts a longer match,
    // emit this byte as a literal and take the later one instead.
    while (pos + 1 + kLzMinMatch <= input.size() &&
           len < input.size() - pos) {
      const auto [next_len, next_dist] = matcher.Find(pos + 1);
      if (next_len <= len) break;
      matcher.Insert(pos + 1);
      ++pos;
      len = next_len;
      dist = next_dist;
    }
    flush_literals(pos);
    PutVarint64(out, len - kLzMinMatch);
    PutVarint64(out, dist);
    // Index every position the match covers so repeats right after it
    // are still found (bounded chains keep this O(n) overall).
    for (std::size_t i = pos + 1;
         i + kLzMinMatch <= input.size() && i < pos + len; ++i) {
      matcher.Insert(i);
    }
    pos += len;
    literal_start = pos;
  }
  flush_literals(input.size());
  return out;
}

Result<std::string> DecompressBytes(std::string_view compressed,
                                    std::size_t decompressed_size) {
  // Written in place into a buffer of the declared size; `produced`
  // counts the bytes decoded so far, and every check below keeps it
  // within the buffer.
  std::string out(decompressed_size, '\0');
  char* const base = &out[0];
  std::size_t produced = 0;
  ByteReader reader(compressed);
  while (true) {
    std::uint64_t literal_len = 0;
    if (!reader.TryReadVarint64(&literal_len)) {
      SITM_ASSIGN_OR_RETURN(literal_len, reader.ReadVarint64());
    }
    if (literal_len > decompressed_size - produced) {
      return Status::Corruption(
          "columnar: LZ literal run overflows the declared size");
    }
    SITM_ASSIGN_OR_RETURN(const std::string_view literals,
                          reader.ReadBytes(literal_len));
    std::memcpy(base + produced, literals.data(), literals.size());
    produced += literals.size();
    if (reader.empty()) break;
    std::uint64_t extra = 0;
    if (!reader.TryReadVarint64(&extra)) {
      SITM_ASSIGN_OR_RETURN(extra, reader.ReadVarint64());
    }
    if (extra > decompressed_size ||
        kLzMinMatch + extra > decompressed_size - produced) {
      return Status::Corruption(
          "columnar: LZ match overflows the declared size");
    }
    const std::size_t match = kLzMinMatch + static_cast<std::size_t>(extra);
    std::uint64_t distance = 0;
    if (!reader.TryReadVarint64(&distance)) {
      SITM_ASSIGN_OR_RETURN(distance, reader.ReadVarint64());
    }
    if (distance == 0 || distance > produced) {
      return Status::Corruption("columnar: LZ distance " +
                                std::to_string(distance) +
                                " outside the produced window");
    }
    char* const dst = base + produced;
    const char* const src = dst - distance;
    if (distance >= match) {
      std::memcpy(dst, src, match);
    } else {
      // The match overlaps its own output (how runs compress): copy
      // byte by byte so each byte sees the ones just written.
      for (std::size_t i = 0; i < match; ++i) dst[i] = src[i];
    }
    produced += match;
  }
  if (produced != decompressed_size) {
    return Status::Corruption("columnar: LZ stream decodes to " +
                              std::to_string(produced) + " bytes, not " +
                              std::to_string(decompressed_size));
  }
  return out;
}

}  // namespace sitm::storage
