#include "src/fslib/types.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace linefs::fslib {

namespace {

// Software CRC32C (Castagnoli, reflected 0x82F63B78), slicing-by-8: eight
// derived tables let the loop fold 8 bytes per iteration instead of 1.
// Produces bit-identical values to the classic byte-at-a-time form.
struct Crc32cTable {
  uint32_t entries[8][256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      entries[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = entries[0][i];
      for (int t = 1; t < 8; ++t) {
        crc = (crc >> 8) ^ entries[0][crc & 0xFF];
        entries[t][i] = crc;
      }
    }
  }
};

const Crc32cTable& Table() {
  static Crc32cTable table;
  return table;
}

#if defined(__x86_64__)
// SSE4.2 `crc32` computes the same reflected Castagnoli CRC as the table
// loop, 8 bytes per instruction. Compiled for SSE4.2 regardless of the
// build's -march and only called after the run-time CPU check below.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data, size_t len,
                                                        uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  while (len >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    len -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (size_t i = 0; i < len; ++i) {
    crc32 = _mm_crc32_u8(crc32, p[i]);
  }
  return ~crc32;
}
#endif

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cFn SelectCrc32c() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    return Crc32cSse42;
  }
#endif
  return Crc32cSoftware;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  static const Crc32cFn impl = SelectCrc32c();
  return impl(data, len, seed);
}

uint32_t Crc32cSoftware(const void* data, size_t len, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  const Crc32cTable& table = Table();
  while (len >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = table.entries[7][lo & 0xFF] ^ table.entries[6][(lo >> 8) & 0xFF] ^
          table.entries[5][(lo >> 16) & 0xFF] ^ table.entries[4][lo >> 24] ^
          table.entries[3][hi & 0xFF] ^ table.entries[2][(hi >> 8) & 0xFF] ^
          table.entries[1][(hi >> 16) & 0xFF] ^ table.entries[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table.entries[0][(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

}  // namespace linefs::fslib
