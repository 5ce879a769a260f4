// LZW codec tests: round trips, ratio behaviour, corruption detection.

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <utility>
#include <vector>

#include "src/compress/lzw.h"
#include "src/sim/random.h"

namespace linefs::compress {
namespace {

std::vector<uint8_t> RoundTrip(const std::vector<uint8_t>& input) {
  std::vector<uint8_t> compressed = LzwCompress(input);
  Result<std::vector<uint8_t>> restored = LzwDecompress(compressed);
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  return restored.ok() ? *restored : std::vector<uint8_t>{};
}

TEST(Lzw, EmptyInput) {
  std::vector<uint8_t> empty;
  EXPECT_EQ(RoundTrip(empty), empty);
}

TEST(Lzw, SingleByte) {
  std::vector<uint8_t> one{42};
  EXPECT_EQ(RoundTrip(one), one);
}

TEST(Lzw, RepetitiveDataCompressesWell) {
  std::vector<uint8_t> input(1 << 20, 0);
  std::vector<uint8_t> compressed = LzwCompress(input);
  EXPECT_EQ(RoundTrip(input), input);
  EXPECT_LT(compressed.size(), input.size() / 20);
}

TEST(Lzw, TextLikeData) {
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "the quick brown fox jumps over the lazy dog ";
  }
  std::vector<uint8_t> input(text.begin(), text.end());
  std::vector<uint8_t> compressed = LzwCompress(input);
  EXPECT_EQ(RoundTrip(input), input);
  EXPECT_LT(compressed.size(), input.size() / 3);
}

TEST(Lzw, RandomDataDoesNotExplode) {
  sim::Rng rng(99);
  std::vector<uint8_t> input(256 << 10);
  for (auto& b : input) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> compressed = LzwCompress(input);
  EXPECT_EQ(RoundTrip(input), input);
  // Incompressible data grows by at most ~couple of percent (16-bit codes).
  EXPECT_LT(compressed.size(), input.size() * 21 / 10);
}

TEST(Lzw, KwKwKPattern) {
  // Classic LZW stress: "abababab..." triggers the code==next_code case.
  std::vector<uint8_t> input;
  for (int i = 0; i < 10000; ++i) {
    input.push_back('a');
    input.push_back('b');
  }
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(Lzw, ZeroFillRatioMatchesPaperKnob) {
  // The Fig. 9 input generator controls the ratio via the share of zero bytes.
  sim::Rng rng(7);
  for (double zero_frac : {0.4, 0.6, 0.8}) {
    std::vector<uint8_t> input(512 << 10);
    for (auto& b : input) {
      b = rng.Bernoulli(zero_frac) ? 0 : static_cast<uint8_t>(rng.Next() | 1);
    }
    std::vector<uint8_t> compressed = LzwCompress(input);
    EXPECT_EQ(RoundTrip(input), input);
    double saved = 1.0 - CompressionRatio(input.size(), compressed.size());
    // More zeros => more savings; loose monotone sanity bound.
    EXPECT_GT(saved, zero_frac - 0.35);
  }
}

TEST(Lzw, DictionaryResetOnLongDiverseInput) {
  // > 64K distinct phrases forces a dictionary reset mid-stream.
  std::vector<uint8_t> input;
  input.reserve(3 << 20);
  uint64_t x = 1;
  for (int i = 0; i < (3 << 20) / 8; ++i) {
    x = x * 6364136223846793005ULL + 1;
    for (int b = 0; b < 8; ++b) {
      input.push_back(static_cast<uint8_t>(x >> (b * 8)));
    }
  }
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(Lzw, CorruptHeaderRejected) {
  std::vector<uint8_t> input(1000, 7);
  std::vector<uint8_t> compressed = LzwCompress(input);
  compressed[0] ^= 0xFF;
  EXPECT_FALSE(LzwDecompress(compressed).ok());
}

// Hand-built stream: the "LZW1" header claiming `original_size`, then
// `codes` packed LSB-first at the given widths.
std::vector<uint8_t> RawStream(uint32_t original_size,
                               std::initializer_list<std::pair<uint32_t, uint32_t>> codes) {
  std::vector<uint8_t> out(8);
  uint32_t header[2] = {0x4C5A5731, original_size};
  std::memcpy(out.data(), header, sizeof(header));
  uint64_t acc = 0;
  uint32_t filled = 0;
  for (auto [code, bits] : codes) {
    acc |= static_cast<uint64_t>(code) << filled;
    filled += bits;
    while (filled >= 8) {
      out.push_back(static_cast<uint8_t>(acc));
      acc >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) {
    out.push_back(static_cast<uint8_t>(acc));
  }
  return out;
}

TEST(Lzw, RawStreamHelperMatchesEncoder) {
  // "aaa" encodes as 'a' then the KwKwK code 257 ("aa").
  std::vector<uint8_t> input{'a', 'a', 'a'};
  EXPECT_EQ(RawStream(3, {{'a', 9}, {257, 9}}), LzwCompress(input));
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(Lzw, OutputLongerThanHeaderRejected) {
  // 'a' then KwKwK 257 decodes to "aaa": one byte more than the header's 2.
  EXPECT_FALSE(LzwDecompress(RawStream(2, {{'a', 9}, {257, 9}})).ok());
}

TEST(Lzw, CodeBeyondNextDictionarySlotRejected) {
  // After 'a' the next free slot is 257; 258 names nothing yet.
  EXPECT_FALSE(LzwDecompress(RawStream(3, {{'a', 9}, {258, 9}})).ok());
}

TEST(Lzw, FirstCodeAfterResetMustBeLiteral) {
  EXPECT_FALSE(LzwDecompress(RawStream(10, {{'a', 9}, {256, 9}, {300, 9}})).ok());
  EXPECT_FALSE(LzwDecompress(RawStream(10, {{257, 9}})).ok());
}

TEST(Lzw, HeaderSizeBeyondStreamCapacityRejected) {
  // Nine bytes cannot hold a single 9-bit code, let alone 4 GiB of output;
  // the decoder must fail before reserving the claimed size.
  std::vector<uint8_t> stream = RawStream(0xFFFFFFFFu, {});
  stream.push_back('a');
  ASSERT_EQ(stream.size(), 9u);
  EXPECT_FALSE(LzwDecompress(stream).ok());
  // A real stream whose header overstates its size fails the same way.
  std::vector<uint8_t> compressed = LzwCompress(std::vector<uint8_t>(4096, 1));
  uint32_t huge = 0xFFFFFFF0u;
  std::memcpy(compressed.data() + 4, &huge, sizeof(huge));
  EXPECT_FALSE(LzwDecompress(compressed).ok());
}

TEST(Lzw, TruncatedStreamRejected) {
  std::vector<uint8_t> input(100000, 3);
  std::vector<uint8_t> compressed = LzwCompress(input);
  compressed.resize(compressed.size() / 2);
  EXPECT_FALSE(LzwDecompress(compressed).ok());
}

}  // namespace
}  // namespace linefs::compress
