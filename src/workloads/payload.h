// Seeded mixed payload for codec tests and benchmarks: runs of 64..1024
// bytes, about 60% of them zero-filled and the rest random, so LZW has real
// work and a ratio to find. Same recipe (and bytes, for a given seed) as
// perfbench's syncwrite_busy payload.

#ifndef SRC_WORKLOADS_PAYLOAD_H_
#define SRC_WORKLOADS_PAYLOAD_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/random.h"

namespace linefs::workloads {

inline std::vector<uint8_t> MixedPayload(uint64_t bytes, uint64_t seed) {
  sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  std::vector<uint8_t> p(bytes);
  uint64_t i = 0;
  while (i < bytes) {
    uint64_t run = std::min<uint64_t>(64 + rng.Uniform(961), bytes - i);
    if (rng.Uniform(100) < 60) {
      std::fill_n(p.begin() + static_cast<std::ptrdiff_t>(i), run, 0);
    } else {
      for (uint64_t j = 0; j < run; ++j) {
        p[i + j] = static_cast<uint8_t>(rng.Next());
      }
    }
    i += run;
  }
  return p;
}

}  // namespace linefs::workloads

#endif  // SRC_WORKLOADS_PAYLOAD_H_
