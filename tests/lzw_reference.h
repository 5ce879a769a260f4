// Reference LZW codec for differential tests: the original, straightforward
// implementation (hash-map dictionary on the encoder, backward chain walk on
// the decoder). src/compress/lzw.cc must emit exactly the bytes
// RefLzwCompress emits; see LzwPropertyTest.

#ifndef TESTS_LZW_REFERENCE_H_
#define TESTS_LZW_REFERENCE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/result.h"

namespace linefs::compress::ref {

inline constexpr uint32_t kMaxBits = 16;
inline constexpr uint32_t kMaxCodes = 1u << kMaxBits;
inline constexpr uint32_t kResetCode = 256;
inline constexpr uint32_t kFirstCode = 257;
inline constexpr uint32_t kMagic = 0x4C5A5731;  // "LZW1"

class BitWriter {
 public:
  explicit BitWriter(std::vector<uint8_t>* out) : out_(out) {}

  void Put(uint32_t value, uint32_t bits) {
    acc_ |= static_cast<uint64_t>(value) << filled_;
    filled_ += bits;
    while (filled_ >= 8) {
      out_->push_back(static_cast<uint8_t>(acc_ & 0xFF));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  void Flush() {
    if (filled_ > 0) {
      out_->push_back(static_cast<uint8_t>(acc_ & 0xFF));
      acc_ = 0;
      filled_ = 0;
    }
  }

 private:
  std::vector<uint8_t>* out_;
  uint64_t acc_ = 0;
  uint32_t filled_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> in) : in_(in) {}

  bool Get(uint32_t bits, uint32_t* value) {
    while (filled_ < bits) {
      if (pos_ >= in_.size()) {
        return false;
      }
      acc_ |= static_cast<uint64_t>(in_[pos_++]) << filled_;
      filled_ += 8;
    }
    *value = static_cast<uint32_t>(acc_ & ((1ULL << bits) - 1));
    acc_ >>= bits;
    filled_ -= bits;
    return true;
  }

 private:
  std::span<const uint8_t> in_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  uint32_t filled_ = 0;
};

inline uint32_t BitsFor(uint32_t next_code) {
  uint32_t bits = 9;
  while ((1u << bits) < next_code + 1 && bits < kMaxBits) {
    ++bits;
  }
  return bits;
}

inline std::vector<uint8_t> RefLzwCompress(std::span<const uint8_t> input) {
  std::vector<uint8_t> out(8);
  uint32_t header[2] = {kMagic, static_cast<uint32_t>(input.size())};
  std::memcpy(out.data(), header, sizeof(header));
  if (input.empty()) {
    return out;
  }
  BitWriter writer(&out);
  std::unordered_map<uint64_t, uint32_t> dict;
  uint32_t next_code = kFirstCode;
  uint32_t current = input[0];
  for (size_t i = 1; i < input.size(); ++i) {
    uint8_t byte = input[i];
    uint64_t key = (static_cast<uint64_t>(current) << 8) | byte;
    auto it = dict.find(key);
    if (it != dict.end()) {
      current = it->second;
      continue;
    }
    writer.Put(current, BitsFor(next_code));
    if (next_code < kMaxCodes - 1) {
      dict.emplace(key, next_code++);
    } else {
      writer.Put(kResetCode, BitsFor(next_code));
      dict.clear();
      next_code = kFirstCode;
    }
    current = byte;
  }
  writer.Put(current, BitsFor(next_code));
  writer.Flush();
  return out;
}

// Decodes well-formed streams only: it trusts the header size, so it is a
// round-trip reference, not a validator.
inline Result<std::vector<uint8_t>> RefLzwDecompress(std::span<const uint8_t> input) {
  if (input.size() < 8) {
    return Status::Error(ErrorCode::kCorrupt, "lzw: short input");
  }
  uint32_t header[2];
  std::memcpy(header, input.data(), sizeof(header));
  if (header[0] != kMagic) {
    return Status::Error(ErrorCode::kCorrupt, "lzw: bad magic");
  }
  std::vector<uint8_t> out;
  if (header[1] == 0) {
    return out;
  }
  BitReader reader(input.subspan(8));
  std::vector<std::pair<uint32_t, uint8_t>> dict;
  std::string scratch;
  auto expand = [&dict, &scratch](uint32_t code) -> bool {
    scratch.clear();
    while (code >= kFirstCode) {
      uint32_t idx = code - kFirstCode;
      if (idx >= dict.size()) {
        return false;
      }
      scratch.push_back(static_cast<char>(dict[idx].second));
      code = dict[idx].first;
    }
    scratch.push_back(static_cast<char>(code));
    return true;
  };
  uint32_t enc_next = kFirstCode;
  uint32_t prev = 0;
  bool have_prev = false;
  while (out.size() < header[1]) {
    uint32_t code = 0;
    if (!reader.Get(BitsFor(enc_next), &code)) {
      return Status::Error(ErrorCode::kCorrupt, "lzw: truncated stream");
    }
    if (code == kResetCode) {
      dict.clear();
      enc_next = kFirstCode;
      have_prev = false;
      continue;
    }
    if (!have_prev) {
      if (code > 255) {
        return Status::Error(ErrorCode::kCorrupt, "lzw: bad first code");
      }
      out.push_back(static_cast<uint8_t>(code));
      prev = code;
      have_prev = true;
    } else {
      bool kwkwk = code == kFirstCode + static_cast<uint32_t>(dict.size());
      if (!expand(kwkwk ? prev : code)) {
        return Status::Error(ErrorCode::kCorrupt, "lzw: bad code");
      }
      uint8_t first_byte_of_new = static_cast<uint8_t>(scratch.back());
      for (auto it = scratch.rbegin(); it != scratch.rend(); ++it) {
        out.push_back(static_cast<uint8_t>(*it));
      }
      if (kwkwk) {
        out.push_back(first_byte_of_new);
      }
      dict.emplace_back(prev, first_byte_of_new);
      prev = code;
    }
    if (enc_next < kMaxCodes - 1) {
      ++enc_next;
    }
  }
  return out;
}

}  // namespace linefs::compress::ref

#endif  // TESTS_LZW_REFERENCE_H_
