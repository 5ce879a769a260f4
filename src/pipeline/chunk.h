// The unit of work flowing through the NICFS persistence pipeline.
//
// A chunk is one contiguous client-log range, fetched once and then shared by
// the publication path (entries) and the replication path (wire payload).
// `image` is the fetched fslib::Payload; `wire` starts as the same shared
// buffer and is what the transfer stage sends. A stage (src/pipeline/stage.h)
// that changes bytes points `wire` at a new buffer: compress does,
// checksumming only seals. The `wire_*` flags record which transforms the
// bytes carry so the receiving replica can verify and undo them.

#ifndef SRC_PIPELINE_CHUNK_H_
#define SRC_PIPELINE_CHUNK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fslib/oplog.h"
#include "src/obs/trace.h"
#include "src/sim/time.h"

namespace linefs::pipeline {

struct Chunk {
  int client = 0;
  uint64_t no = 0;
  uint64_t from = 0;
  uint64_t to = 0;
  bool urgent = false;
  bool failed = false;  // Parse/validation failure: skip work, keep order.
  fslib::PayloadPtr image;                  // As fetched into NIC memory.
  fslib::PayloadPtr wire;                   // As sent to the replicas.
  std::vector<fslib::ParsedEntry> entries;  // Populated by validation.
  bool wire_compressed = false;
  bool wire_checksummed = false;
  uint64_t wire_checksum = 0;               // Seal over the final wire bytes.
  uint64_t mem_reserved = 0;
  int release_refs = 0;
  sim::Time transfer_done_at = 0;
  // Causal-trace position: updated as the chunk moves through the shared
  // stages (fetch -> validate), so each stage span parents on the previous.
  obs::TraceContext ctx;
  uint64_t bytes() const { return to - from; }
  // Bytes the wire payload occupies; the logical size when data is elided.
  uint64_t wire_bytes() const { return wire->bytes.empty() ? bytes() : wire->bytes.size(); }
};

using ChunkPtr = std::shared_ptr<Chunk>;

}  // namespace linefs::pipeline

#endif  // SRC_PIPELINE_CHUNK_H_
