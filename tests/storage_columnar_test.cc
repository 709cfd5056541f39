// Byte-level edge cases for the columnar encoding primitives, with the
// varint decoder's shift-width boundaries pinned explicitly: the 10-byte
// maximum-length varint shifts its last payload by 63, one step short of
// the width of uint64 — the sanitizer matrix (SITM_SANITIZE=undefined)
// runs these to prove no decode path ever shifts by >= 64 or overflows,
// no matter what bytes a corrupt file feeds in.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/columnar.h"

namespace sitm::storage {
namespace {

std::vector<std::uint64_t> U64Corners() {
  return {0,
          1,
          0x7f,
          0x80,
          0x3fff,
          0x4000,
          (1ull << 35) - 1,
          1ull << 35,
          (1ull << 56) - 1,
          1ull << 56,
          (1ull << 63) - 1,
          1ull << 63,
          std::numeric_limits<std::uint64_t>::max()};
}

TEST(ColumnarVarintTest, RoundTripsEveryShiftBoundary) {
  for (const std::uint64_t v : U64Corners()) {
    std::string buf;
    PutVarint64(buf, v);
    ASSERT_LE(buf.size(), 10u) << v;
    ByteReader reader(buf);
    const Result<std::uint64_t> decoded = reader.ReadVarint64();
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_TRUE(reader.empty());
  }
}

TEST(ColumnarVarintTest, MaxValueUsesTenBytesWithTopBitOnly) {
  std::string buf;
  PutVarint64(buf, std::numeric_limits<std::uint64_t>::max());
  ASSERT_EQ(buf.size(), 10u);
  // The 10th byte contributes only bit 63: its payload must be 1.
  EXPECT_EQ(static_cast<unsigned char>(buf[9]), 0x01);
}

TEST(ColumnarVarintTest, TenthByteAboveOneIsCorruptionNotOverflow) {
  // 9 continuation bytes followed by a 10th whose payload would need
  // shifts past bit 63. A naive decoder shifts those bits into the void
  // (or into UB); ours must refuse the encoding.
  std::string buf(9, static_cast<char>(0x80));
  buf.push_back(static_cast<char>(0x02));
  ByteReader reader(buf);
  const Result<std::uint64_t> decoded = reader.ReadVarint64();
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().Is(StatusCode::kCorruption));
}

TEST(ColumnarVarintTest, ElevenContinuationBytesIsCorruption) {
  const std::string buf(11, static_cast<char>(0x80));
  ByteReader reader(buf);
  const Result<std::uint64_t> decoded = reader.ReadVarint64();
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().Is(StatusCode::kCorruption));
}

TEST(ColumnarVarintTest, TruncatedMidVarintIsCorruption) {
  std::string full;
  PutVarint64(full, 1ull << 62);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader reader(full.data(), cut);
    const Result<std::uint64_t> decoded = reader.ReadVarint64();
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_TRUE(decoded.status().Is(StatusCode::kCorruption));
  }
}

TEST(ColumnarZigZagTest, RoundTripsInt64Extremes) {
  const std::vector<std::int64_t> corners = {
      0,
      -1,
      1,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::min() + 1,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max() - 1};
  for (const std::int64_t v : corners) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
    std::string buf;
    PutSVarint64(buf, v);
    ByteReader reader(buf);
    const Result<std::int64_t> decoded = reader.ReadSVarint64();
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
  }
}

TEST(ColumnarDeltaColumnTest, AdjacentInt64ExtremesRoundTrip) {
  // Deltas wrap mod 2^64 by design: consecutive values at the two ends
  // of the int64 range produce the largest possible wrapped deltas.
  const std::vector<std::int64_t> values = {
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
      0,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      -1,
      1};
  std::string buf;
  PutDeltaColumn(buf, values);
  ByteReader reader(buf);
  const Result<std::vector<std::int64_t>> decoded =
      ReadDeltaColumn(reader, values.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, values);
  EXPECT_TRUE(reader.empty());
}

TEST(ColumnarDeltaColumnTest, CraftedOverflowingDeltasDecodeDefined) {
  // A hostile column whose running sum overflows int64 repeatedly must
  // decode to *some* deterministic values (wrap semantics), never trap.
  std::string buf;
  for (int i = 0; i < 8; ++i) {
    PutSVarint64(buf, std::numeric_limits<std::int64_t>::max());
  }
  ByteReader reader(buf);
  const Result<std::vector<std::int64_t>> decoded = ReadDeltaColumn(reader, 8);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 8u);
  // Running sum of int64::max mod 2^64; spot-check the wrap landed where
  // two's-complement arithmetic says it must.
  EXPECT_EQ((*decoded)[0], std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ((*decoded)[1], -2);
}

TEST(ColumnarBitColumnTest, TailBitsRoundTripAtEveryWidth) {
  for (std::size_t n = 0; n <= 17; ++n) {
    std::vector<bool> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) values.push_back((i % 3) == 0);
    std::string buf;
    PutBitColumn(buf, values);
    EXPECT_EQ(buf.size(), (n + 7) / 8);
    ByteReader reader(buf);
    const Result<std::vector<bool>> decoded = ReadBitColumn(reader, n);
    ASSERT_TRUE(decoded.ok()) << n;
    EXPECT_EQ(*decoded, values);
  }
}

TEST(ColumnarFixedWidthTest, U32U64RoundTripAndTruncationChecks) {
  std::string buf;
  PutU32(buf, 0xdeadbeefu);
  PutU64(buf, 0x0123456789abcdefull);
  ByteReader reader(buf);
  const Result<std::uint32_t> u32 = reader.ReadU32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 0xdeadbeefu);
  const Result<std::uint64_t> u64 = reader.ReadU64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, 0x0123456789abcdefull);

  ByteReader short_reader(buf.data(), 3);
  ASSERT_FALSE(short_reader.ReadU32().ok());
  ByteReader short_reader64(buf.data(), 7);
  ASSERT_FALSE(short_reader64.ReadU64().ok());
}

// ---------------------------------------------------------------------------
// LZ byte codec (the byte layer of v3 blocks).
// ---------------------------------------------------------------------------

/// Deterministic xorshift so the corpus needs no <random> and
/// reproduces bit-for-bit everywhere.
std::uint64_t NextRand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

std::vector<std::string> LzCorpus() {
  std::vector<std::string> corpus;
  corpus.emplace_back();                      // empty
  corpus.emplace_back("a");                   // below min match
  corpus.emplace_back(std::string(100, 'x'));  // pure run (self-overlap)
  corpus.push_back([] {                       // page of repeating records
    std::string s;
    for (int i = 0; i < 200; ++i) {
      s += "object=" + std::to_string(i % 17) + ";cell=" +
           std::to_string(i % 23) + ";";
    }
    return s;
  }());
  corpus.push_back([] {  // incompressible pseudo-random bytes
    std::string s;
    std::uint64_t state = 0xdeadbeefcafef00dull;
    for (int i = 0; i < 4096; ++i) {
      s.push_back(static_cast<char>(NextRand(state) & 0xff));
    }
    return s;
  }());
  corpus.push_back([] {  // long-range repeat straddling the 64KB window
    std::string s(70000, '\0');
    std::uint64_t state = 3;
    for (auto& c : s) c = static_cast<char>(NextRand(state) & 0x0f);
    s += s.substr(0, 3000);
    return s;
  }());
  return corpus;
}

TEST(ColumnarLzTest, RoundTripsCorpusLosslessly) {
  for (const std::string& input : LzCorpus()) {
    const std::string compressed = CompressBytes(input);
    const auto decompressed = DecompressBytes(compressed, input.size());
    ASSERT_TRUE(decompressed.ok()) << decompressed.status();
    EXPECT_EQ(*decompressed, input);
  }
}

TEST(ColumnarLzTest, RepetitiveInputActuallyCompresses) {
  const std::string input(LzCorpus()[3]);  // repeating records
  EXPECT_LT(CompressBytes(input).size(), input.size() / 2);
}

TEST(ColumnarLzTest, EveryTruncationIsCorruption) {
  // A truncated stream either cuts a literal run / match token (bounds
  // check) or ends early (declared-size check) — always Corruption.
  const std::string input = LzCorpus()[3];
  const std::string compressed = CompressBytes(input);
  for (std::size_t cut = 0; cut < compressed.size(); ++cut) {
    const auto decompressed =
        DecompressBytes(compressed.substr(0, cut), input.size());
    EXPECT_EQ(decompressed.status().code(), StatusCode::kCorruption)
        << "cut at " << cut;
  }
}

TEST(ColumnarLzTest, WrongDeclaredSizeIsCorruption) {
  const std::string input = LzCorpus()[3];
  const std::string compressed = CompressBytes(input);
  EXPECT_EQ(DecompressBytes(compressed, input.size() - 1).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecompressBytes(compressed, input.size() + 1).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecompressBytes(compressed, 0).status().code(),
            StatusCode::kCorruption);
}

TEST(ColumnarLzTest, BitFlippedStreamsNeverMisbehave) {
  // A flipped byte may still decode (a literal changed in place) but the
  // decoder must never crash, over-read, or return the wrong size.
  const std::string input = LzCorpus()[3];
  const std::string compressed = CompressBytes(input);
  for (std::size_t pos = 0; pos < compressed.size(); ++pos) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string flipped = compressed;
      flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
      const auto decompressed = DecompressBytes(flipped, input.size());
      if (decompressed.ok()) {
        EXPECT_EQ(decompressed->size(), input.size());
      } else {
        EXPECT_EQ(decompressed.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST(ColumnarLzTest, ForgedDistanceAndLengthAreCorruption) {
  // Hand-built streams hitting each decoder guard: distance 0, distance
  // beyond the produced window, and runs overflowing the declared size.
  std::string zero_distance;
  PutVarint64(zero_distance, 4);
  zero_distance += "abcd";
  PutVarint64(zero_distance, 0);  // match length 4
  PutVarint64(zero_distance, 0);  // distance 0: invalid
  EXPECT_EQ(DecompressBytes(zero_distance, 8).status().code(),
            StatusCode::kCorruption);

  std::string far_distance;
  PutVarint64(far_distance, 4);
  far_distance += "abcd";
  PutVarint64(far_distance, 0);
  PutVarint64(far_distance, 5);  // only 4 bytes produced so far
  EXPECT_EQ(DecompressBytes(far_distance, 8).status().code(),
            StatusCode::kCorruption);

  std::string fat_literal;
  PutVarint64(fat_literal, 100);  // literal run beyond declared size
  fat_literal += std::string(100, 'z');
  EXPECT_EQ(DecompressBytes(fat_literal, 10).status().code(),
            StatusCode::kCorruption);

  std::string fat_match;
  PutVarint64(fat_match, 4);
  fat_match += "abcd";
  PutVarint64(fat_match, 1u << 20);  // match overflowing declared size
  PutVarint64(fat_match, 1);
  EXPECT_EQ(DecompressBytes(fat_match, 16).status().code(),
            StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Fast decode paths: the inline varint reader the column decoders use,
// and the memcpy copies in DecompressBytes. Both must agree exactly with
// the checked slow paths — values, consumed bytes and every Status.
// ---------------------------------------------------------------------------

TEST(ColumnarFastPathTest, TryReadVarintTakesAtMostNineBytes) {
  for (const std::uint64_t v : U64Corners()) {
    std::string buf;
    PutVarint64(buf, v);
    ByteReader reader(buf);
    std::uint64_t decoded = 0;
    if (buf.size() <= 9) {
      ASSERT_TRUE(reader.TryReadVarint64(&decoded)) << v;
      EXPECT_EQ(decoded, v);
      EXPECT_TRUE(reader.empty());
    } else {
      // 10-byte varints (>= 2^63) fall back, consuming nothing.
      EXPECT_FALSE(reader.TryReadVarint64(&decoded)) << v;
      EXPECT_EQ(reader.position(), 0u);
    }
  }
  // Truncated in-bounds prefixes also fall back without consuming.
  std::string full;
  PutVarint64(full, 1ull << 40);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader reader(full.data(), cut);
    std::uint64_t decoded = 0;
    EXPECT_FALSE(reader.TryReadVarint64(&decoded)) << cut;
    EXPECT_EQ(reader.position(), 0u);
  }
}

TEST(ColumnarFastPathTest, TenByteValuesRoundTripThroughTheFallback) {
  // Columns mixing one-byte values with values >= 2^63, whose varints
  // take 10 bytes and so always leave the fast path.
  const std::uint64_t big = 1ull << 63;
  const std::vector<std::uint64_t> unsigned_values = {
      1, big, 2, std::numeric_limits<std::uint64_t>::max(), 0, big + 5, 3};
  std::string varints;
  PutVarintColumn(varints, unsigned_values);
  ByteReader varint_reader(varints);
  const auto varint_decoded =
      ReadVarintColumn(varint_reader, unsigned_values.size());
  ASSERT_TRUE(varint_decoded.ok()) << varint_decoded.status();
  EXPECT_EQ(*varint_decoded, unsigned_values);
  EXPECT_TRUE(varint_reader.empty());

  // Alternating int64 extremes: every wrapped delta zigzags to >= 2^63.
  const std::vector<std::int64_t> signed_values = {
      0,
      std::numeric_limits<std::int64_t>::max(),
      -1,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::min() + 1,
      std::numeric_limits<std::int64_t>::max(),
      7};
  std::string deltas;
  PutDeltaColumn(deltas, signed_values);
  ASSERT_GT(deltas.size(), 3 * 10u);  // several 10-byte deltas
  ByteReader delta_reader(deltas);
  const auto delta_decoded = ReadDeltaColumn(delta_reader, signed_values.size());
  ASSERT_TRUE(delta_decoded.ok()) << delta_decoded.status();
  EXPECT_EQ(*delta_decoded, signed_values);
  EXPECT_TRUE(delta_reader.empty());
}

/// The Status ReadVarint64 gives for the varint after `good` values of
/// `buf` — what a column decoder must return word for word.
Status SlowPathStatusAfter(const std::string& buf, std::size_t good) {
  ByteReader reader(buf);
  for (std::size_t i = 0; i < good; ++i) {
    EXPECT_TRUE(reader.ReadVarint64().ok());
  }
  const Result<std::uint64_t> bad = reader.ReadVarint64();
  EXPECT_FALSE(bad.ok());
  return bad.status();
}

TEST(ColumnarFastPathTest, MalformedVarintMidColumnKeepsTheSlowPathStatus) {
  std::string prefix;
  for (const std::uint64_t v : {5ull, 300ull, 1ull << 50, 1ull << 63}) {
    PutVarint64(prefix, v);
  }
  const std::size_t good = 4;
  std::string overflowing(9, static_cast<char>(0x80));
  overflowing.push_back(static_cast<char>(0x02));  // 10th byte > 1
  std::string overlong(11, static_cast<char>(0x80));  // > 10 bytes
  PutVarint64(overflowing, 1);  // valid bytes after a bad varint are
  PutVarint64(overlong, 1);     // never read
  const std::string tails[] = {
      std::string(3, static_cast<char>(0x80)),  // truncated mid-varint
      overflowing,
      overlong,
  };
  for (const std::string& tail : tails) {
    const std::string buf = prefix + tail;
    const Status expected = SlowPathStatusAfter(buf, good);
    ASSERT_EQ(expected.code(), StatusCode::kCorruption);

    ByteReader varint_reader(buf);
    const auto varints = ReadVarintColumn(varint_reader, good + 2);
    ASSERT_FALSE(varints.ok());
    EXPECT_EQ(varints.status().code(), expected.code());
    EXPECT_EQ(varints.status().message(), expected.message());

    ByteReader delta_reader(buf);
    const auto deltas = ReadDeltaColumn(delta_reader, good + 2);
    ASSERT_FALSE(deltas.ok());
    EXPECT_EQ(deltas.status().code(), expected.code());
    EXPECT_EQ(deltas.status().message(), expected.message());
  }
}

/// Reference LZ decoder: the plain byte loop the fast decoder replaced,
/// without any guard (test streams are well-formed).
std::string ReferenceDecompress(std::string_view compressed) {
  std::string out;
  ByteReader reader(compressed);
  while (true) {
    const std::uint64_t literal_len = *reader.ReadVarint64();
    out.append(*reader.ReadBytes(literal_len));
    if (reader.empty()) break;
    const std::uint64_t match = 4 + *reader.ReadVarint64();
    const std::uint64_t distance = *reader.ReadVarint64();
    const std::size_t from = out.size() - distance;
    for (std::size_t i = 0; i < match; ++i) out.push_back(out[from + i]);
  }
  return out;
}

TEST(ColumnarFastPathTest, LzMatchCopiesAgreeWithAByteLoopAtEveryDistance) {
  // One literal run, one match of length `match` at `distance`, one
  // trailing literal run. Distances just below the match length overlap
  // (byte loop); distance == match length is the first memcpy case.
  const std::string literals = "0123456789abcdefghijklmnopqrstuv";
  for (const std::size_t match : {4u, 5u, 7u, 16u, 29u}) {
    for (const std::size_t distance :
         {match - 3, match - 2, match - 1, match, match + 1,
          literals.size()}) {
      if (distance == 0 || distance > literals.size()) continue;
      std::string stream;
      PutVarint64(stream, literals.size());
      stream += literals;
      PutVarint64(stream, match - 4);
      PutVarint64(stream, distance);
      PutVarint64(stream, 3);
      stream += "xyz";
      const std::string expected = ReferenceDecompress(stream);
      ASSERT_EQ(expected.size(), literals.size() + match + 3);
      const auto decoded = DecompressBytes(stream, expected.size());
      ASSERT_TRUE(decoded.ok())
          << "match " << match << " distance " << distance << ": "
          << decoded.status();
      EXPECT_EQ(*decoded, expected)
          << "match " << match << " distance " << distance;
    }
  }
  // The whole corpus, against the reference decoder.
  for (const std::string& input : LzCorpus()) {
    const std::string compressed = CompressBytes(input);
    EXPECT_EQ(ReferenceDecompress(compressed), input);
  }
}

}  // namespace
}  // namespace sitm::storage
