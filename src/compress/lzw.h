// LZW compression codec (§5.4).
//
// NICFS's optional replication-pipeline compression stage runs Lempel-Ziv-
// Welch over chunk images before transfer. This is a real, working codec:
// variable-width codes (9..16 bits), dictionary reset on overflow, exact
// round-trip. Compression throughput on a SmartNIC core (~200 MB/s in the
// paper) is charged separately via the simulated cost model.
//
// The wire format is frozen: an 8-byte header (magic "LZW1", original size)
// followed by LSB-first codes, 256 = dictionary reset, new codes from 257.
// The compressed length sets the simulated wire time of every compressed
// chunk, so any change to the emitted bytes would move simulated results
// and the determinism digests. tests/property_test.cc pins the output
// against a reference implementation and a golden digest.
//
// The decoder rejects malformed streams: bad magic, truncation, a first
// code above 255 after a reset, codes beyond the next dictionary slot, and
// output longer than the header. It never allocates more than the payload
// can decode to (at most 65,535 bytes per code it can hold).

#ifndef SRC_COMPRESS_LZW_H_
#define SRC_COMPRESS_LZW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/result.h"

namespace linefs::compress {

// Compresses `input`; output includes a small header with the original size.
std::vector<uint8_t> LzwCompress(std::span<const uint8_t> input);

// Decompresses a LzwCompress() result. Fails on malformed input.
Result<std::vector<uint8_t>> LzwDecompress(std::span<const uint8_t> input);

// Convenience: achieved ratio (compressed/original, lower = better).
double CompressionRatio(uint64_t original, uint64_t compressed);

}  // namespace linefs::compress

#endif  // SRC_COMPRESS_LZW_H_
