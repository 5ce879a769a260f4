#include "src/compress/lzw.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

namespace linefs::compress {

namespace {

constexpr uint32_t kMinBits = 9;
constexpr uint32_t kMaxBits = 16;
constexpr uint32_t kMaxCodes = 1u << kMaxBits;
constexpr uint32_t kResetCode = 256;   // Dictionary reset marker.
constexpr uint32_t kFirstCode = 257;
// The encoder assigns codes kFirstCode..kLastCode, then emits kResetCode.
constexpr uint32_t kLastCode = kMaxCodes - 2;
constexpr uint32_t kDictEntries = kLastCode - kFirstCode + 1;
// No dictionary string is longer than this (each code adds one byte).
constexpr uint64_t kMaxStringBytes = kMaxCodes - 1;

struct Header {
  uint32_t magic = 0x4C5A5731;  // "LZW1"
  uint32_t original_size = 0;
};

// Width of the next code: the smallest of 9..16 bits that can hold
// `next_code`. Both sides track it incrementally via CodeWidth::Grow().
struct CodeWidth {
  uint32_t bits = kMinBits;
  uint32_t limit = 1u << kMinBits;  // next_code reaching this widens codes.

  void Reset() { *this = CodeWidth{}; }
  void Grow(uint32_t next_code) {
    if (next_code == limit && bits < kMaxBits) {
      ++bits;
      limit <<= 1;
    }
  }
};

// Little-endian 8-byte load/store (one unaligned move on x86 and arm64).
uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native != std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

void StoreLe64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native != std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, 8);
}

// LSB-first bit packer into a buffer sized for the worst case plus 8 bytes
// of slack: each Put stores the whole accumulator and advances by the
// completed bytes, with no per-byte loop.
class BitWriter {
 public:
  explicit BitWriter(uint8_t* out) : out_(out) {}

  void Put(uint32_t value, uint32_t bits) {
    acc_ |= static_cast<uint64_t>(value) << filled_;
    filled_ += bits;
    StoreLe64(out_, acc_);
    uint32_t whole = filled_ >> 3;  // <= 2: filled_ < 8 + 16.
    out_ += whole;
    acc_ >>= whole * 8;
    filled_ &= 7;
  }

  // One past the last output byte, counting the partial last byte that Put
  // already stored.
  uint8_t* End() const { return out_ + (filled_ > 0 ? 1 : 0); }

 private:
  uint8_t* out_;
  uint64_t acc_ = 0;
  uint32_t filled_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> in) : p_(in.data()), end_(in.data() + in.size()) {}

  bool Get(uint32_t bits, uint32_t* value) {
    if (filled_ < bits) {
      if (end_ - p_ >= 8) {
        // Top up to 56..63 bits with one load.
        acc_ |= LoadLe64(p_) << filled_;
        p_ += (63 - filled_) >> 3;
        filled_ |= 56;
      } else {
        while (filled_ <= 56 && p_ != end_) {
          acc_ |= static_cast<uint64_t>(*p_++) << filled_;
          filled_ += 8;
        }
        if (filled_ < bits) {
          return false;
        }
      }
    }
    *value = static_cast<uint32_t>(acc_ & ((1ULL << bits) - 1));
    acc_ >>= bits;
    filled_ -= bits;
    return true;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  uint64_t acc_ = 0;
  uint32_t filled_ = 0;
};

// Copies `n` bytes of earlier output forward to `dst` (src + n <= dst) in
// 16-byte blocks, so short strings cost one load and one store. May write up
// to 15 bytes past dst + n: the decoder's buffer keeps kCopySlack spare bytes
// and later strings overwrite the excess.
constexpr size_t kCopySlack = 16;

void CopyRun(uint8_t* dst, const uint8_t* src, size_t n) {
  uint8_t block[16];
  for (size_t i = 0; i < n; i += 16) {
    std::memcpy(block, src + i, 16);
    std::memcpy(dst + i, block, 16);
  }
}

// Encoder dictionary: open addressing with linear probing. A slot holds the
// 24-bit key (prefix_code << 8) | byte, or kEmpty; its code sits at the same
// index of a parallel uint16_t array that is only read on a key match, so a
// reset clears 4 bytes per slot. Sized for at most `max_entries` live
// entries at load factor <= 1/2.
class EncoderDict {
 public:
  explicit EncoderDict(size_t max_entries) {
    size_t cap = 64;
    int log2 = 6;
    while (cap < 2 * max_entries) {
      cap <<= 1;
      ++log2;
    }
    mask_ = cap - 1;
    shift_ = 32 - log2;
    keys_.assign(cap, kEmpty);
    codes_.reset(new uint16_t[cap]);
  }

  void Clear() { std::fill(keys_.begin(), keys_.end(), kEmpty); }

  // Returns the slot index holding `key`, or of the empty slot where it
  // belongs.
  size_t Find(uint32_t key) const {
    size_t i = (key * 0x9E3779B1u) >> shift_;
    while (keys_[i] != key && keys_[i] != kEmpty) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  bool Empty(size_t i) const { return keys_[i] == kEmpty; }
  uint32_t Code(size_t i) const { return codes_[i]; }
  void Set(size_t i, uint32_t key, uint32_t code) {
    keys_[i] = key;
    codes_[i] = static_cast<uint16_t>(code);
  }

 private:
  static constexpr uint32_t kEmpty = ~0u;
  std::vector<uint32_t> keys_;
  std::unique_ptr<uint16_t[]> codes_;
  size_t mask_ = 0;
  uint32_t shift_ = 0;
};

}  // namespace

std::vector<uint8_t> LzwCompress(std::span<const uint8_t> input) {
  Header header;
  header.original_size = static_cast<uint32_t>(input.size());
  // Worst case: one code of at most 16 bits per input byte, plus a 16-bit
  // reset code per kDictEntries codes. The scratch buffer is left
  // uninitialized, so only the pages actually written are touched, and the
  // result is copied out at its exact size.
  size_t max_codes = input.size() + input.size() / kDictEntries + 1;
  std::unique_ptr<uint8_t[]> buf(new uint8_t[sizeof(Header) + 2 * max_codes + 8]);
  std::memcpy(buf.get(), &header, sizeof(Header));
  if (input.empty()) {
    return std::vector<uint8_t>(buf.get(), buf.get() + sizeof(Header));
  }
  BitWriter writer(buf.get() + sizeof(Header));
  EncoderDict dict(std::min<size_t>(input.size(), kDictEntries));
  CodeWidth width;
  uint32_t next_code = kFirstCode;

  uint32_t current = input[0];  // Single bytes are codes 0..255.
  for (size_t i = 1; i < input.size(); ++i) {
    uint8_t byte = input[i];
    uint32_t key = (current << 8) | byte;
    size_t slot = dict.Find(key);
    if (!dict.Empty(slot)) {
      current = dict.Code(slot);
      continue;
    }
    writer.Put(current, width.bits);
    if (next_code <= kLastCode) {
      dict.Set(slot, key, next_code++);
      width.Grow(next_code);
    } else {
      writer.Put(kResetCode, width.bits);
      dict.Clear();
      next_code = kFirstCode;
      width.Reset();
    }
    current = byte;
  }
  writer.Put(current, width.bits);
  return std::vector<uint8_t>(buf.get(), writer.End());
}

Result<std::vector<uint8_t>> LzwDecompress(std::span<const uint8_t> input) {
  if (input.size() < sizeof(Header)) {
    return Status::Error(ErrorCode::kCorrupt, "lzw: short input");
  }
  Header header;
  std::memcpy(&header, input.data(), sizeof(Header));
  Header expected;
  if (header.magic != expected.magic) {
    return Status::Error(ErrorCode::kCorrupt, "lzw: bad magic");
  }
  std::span<const uint8_t> payload = input.subspan(sizeof(Header));
  // Allocation is bounded by what the payload can decode to: it holds at
  // most `max_codes` codes of >= 9 bits, each expanding to at most
  // kMaxStringBytes bytes, whatever the header claims.
  uint64_t max_codes = payload.size() * 8 / kMinBits;
  uint64_t size = header.original_size;
  if (size > max_codes * kMaxStringBytes) {
    return Status::Error(ErrorCode::kCorrupt, "lzw: size exceeds stream capacity");
  }
  if (size == 0) {
    return std::vector<uint8_t>{};
  }
  std::vector<uint8_t> out(size + kCopySlack);

  // Dictionary: every code >= kFirstCode names a run of earlier output, so
  // emitting it is one copy. A new entry is the previous code's output plus
  // the first byte of the current one, which follows it in `out`.
  struct Entry {
    uint32_t offset;
    uint32_t length;
  };
  size_t dict_cap = static_cast<size_t>(std::min<uint64_t>(max_codes, kDictEntries + 1));
  std::unique_ptr<Entry[]> dict(new Entry[dict_cap]);
  uint32_t dict_size = 0;

  BitReader reader(payload);
  CodeWidth width;
  // `enc_next` mirrors the encoder's `next_code` at the instant each code
  // was emitted (the decoder's dictionary lags the encoder's by one entry).
  uint32_t enc_next = kFirstCode;
  uint8_t* const base = out.data();
  uint64_t pos = 0;
  uint64_t prev_offset = 0;
  uint32_t prev_length = 0;  // 0: no previous code since the last reset.
  while (pos < size) {
    uint32_t code = 0;
    if (!reader.Get(width.bits, &code)) {
      return Status::Error(ErrorCode::kCorrupt, "lzw: truncated stream");
    }
    if (code == kResetCode) {
      dict_size = 0;
      enc_next = kFirstCode;
      width.Reset();
      prev_length = 0;
      continue;
    }
    uint32_t length = 1;
    if (code < 256) {
      base[pos] = static_cast<uint8_t>(code);
    } else if (prev_length == 0) {
      return Status::Error(ErrorCode::kCorrupt, "lzw: bad first code");
    } else {
      uint32_t pending = kFirstCode + dict_size;
      if (code > pending) {
        return Status::Error(ErrorCode::kCorrupt, "lzw: code beyond dictionary");
      }
      // KwKwK (code == pending): the previous string plus its own first
      // byte, a forward copy whose last byte overlaps its first.
      const bool kwkwk = code == pending;
      const Entry entry = kwkwk ? Entry{static_cast<uint32_t>(prev_offset), prev_length + 1}
                                : dict[code - kFirstCode];
      length = entry.length;
      if (length > size - pos) {
        return Status::Error(ErrorCode::kCorrupt, "lzw: output exceeds header size");
      }
      CopyRun(base + pos, base + entry.offset, length - kwkwk);
      if (kwkwk) {
        base[pos + length - 1] = base[entry.offset];
      }
    }
    if (prev_length != 0 && dict_size < dict_cap) {
      dict[dict_size++] = Entry{static_cast<uint32_t>(prev_offset), prev_length + 1};
    }
    prev_offset = pos;
    prev_length = length;
    pos += length;
    // Mirror the encoder's post-emit dictionary growth.
    if (enc_next < kMaxCodes - 1) {
      ++enc_next;
      width.Grow(enc_next);
    }
  }
  out.resize(size);
  return out;
}

double CompressionRatio(uint64_t original, uint64_t compressed) {
  if (original == 0) {
    return 1.0;
  }
  return static_cast<double>(compressed) / static_cast<double>(original);
}

}  // namespace linefs::compress
