// First-class pipeline-stage API (Meili-style "SmartNIC as a service").
//
// A Stage is a relocatable unit of the NICFS persistence pipeline with a
// declared identity and resource targets. NICFS composes the per-pipe chain
// from DfsConfig::pipeline_stages via the StageRegistry (registry.h) and runs
// each stage through generic queue-fed workers; the StagePlacer (placer.h)
// decides *where* those workers execute — the local SmartNIC's wimpy cores,
// a pooled remote NIC, or host cores once every NIC saturates.
//
// Contract:
//  - Process() is a coroutine that transforms one chunk in place. It charges
//    compute to `where.pool` (never a hard-coded NIC), so a relocated worker
//    automatically bills the right complex.
//  - A chunk carries one shared, immutable fslib::Payload (`image`, and
//    `wire` for what is sent). A stage that changes bytes allocates a new
//    payload and points `wire` at it; every other stage only reads. There is
//    no materialize switch here: with elided data the payload has no bytes,
//    so a byte transform finds nothing to do and the stage just charges its
//    modelled cycles.
//  - Optional stages may be skipped entirely under backpressure (the generic
//    worker's bypass, §3.3.2 generalized); required stages may not.
//  - Order within one chunk is the configured chain order; cross-chunk order
//    is restored downstream by reorder buffers, which is what makes worker
//    migration transparent to the wire protocol.

#ifndef SRC_PIPELINE_STAGE_H_
#define SRC_PIPELINE_STAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fslib/validate.h"
#include "src/hw/params.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/chunk.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace linefs::pipeline {

// Where a stage worker executes. Built by NICFS from a placer site.
struct Placement {
  enum class Site { kLocalNic, kRemoteNic, kHost };
  Site site = Site::kLocalNic;
  int node = 0;                  // Node whose cores run the stage.
  sim::CpuPool* pool = nullptr;  // Compute pool Process() charges cycles to.
  int account = 0;               // Busy-accounting bucket within `pool`.
  // Data-movement cost of a relocated worker, awaited once per chunk before
  // Process(): ships the chunk bytes to the executing complex and the result
  // descriptor back. Empty for local-NIC placement.
  std::function<sim::Task<>(uint64_t bytes)> ship;
};

// Per-pipe execution context shared by every Process() call on that pipe.
struct StageEnv {
  sim::Engine* engine = nullptr;
  const hw::FsCosts* costs = nullptr;
  bool coalescing = false;
  int compression_threads = 1;
  int node = 0;                  // Home node of the pipe (trace lane).
  std::string component;         // "nicfs.<n>": trace category.
  obs::TraceBuffer* trace = nullptr;
  fslib::Validator* validator = nullptr;
  fslib::LogArea* log = nullptr;
  obs::Counter* validation_failures = nullptr;
};

class Stage {
 public:
  // Declared identity and resource/perf targets, consulted by config
  // validation, the generic workers, and the placer.
  struct Info {
    std::string name;            // Registry key and metric/trace stage name.
    bool optional = false;       // Bypassable under backpressure (§3.3.2).
    bool scalable = false;       // The placer may add/retire workers.
    bool shared_fanout = false;  // Output also feeds the publication pipeline.
    double cycles_per_byte = 0;  // Declared compute target (documentation /
                                 // placer sizing; actual cost comes from
                                 // FsCosts so experiments can override it).
  };

  virtual ~Stage() = default;
  virtual const Info& info() const = 0;
  // Transforms one chunk at `where`. Must be safe to call on failed chunks
  // (skip the transform, keep the order).
  virtual sim::Task<> Process(StageEnv& env, const Placement& where,
                              const ChunkPtr& chunk) = 0;
};

// --- Wire-transform helpers (shared with the replica-side undo path) ----------

// Seal over wire bytes (CRC32C). Replicas recompute and compare.
uint64_t WireChecksum(const std::vector<uint8_t>& data);
// Involutive keystream XOR: applying it twice restores the input, so the same
// routine encrypts on the primary and decrypts on each replica.
void XorCipher(std::vector<uint8_t>* data);

// --- Built-in stages ----------------------------------------------------------

// Parse + permission/lease validation (§3.3.1). Required; shared fan-out
// (feeds both publication and replication).
class ValidateStage : public Stage {
 public:
  const Info& info() const override;
  sim::Task<> Process(StageEnv& env, const Placement& where,
                      const ChunkPtr& chunk) override;
};

// LZW compression of the replication wire image (§5.4). Optional.
class CompressStage : public Stage {
 public:
  const Info& info() const override;
  sim::Task<> Process(StageEnv& env, const Placement& where,
                      const ChunkPtr& chunk) override;
};

// CRC32C seal over the outgoing wire bytes; replicas verify on receipt.
// Optional plugin; must be the last transform so the seal covers what is
// actually sent (enforced by DfsConfig::Validate()).
class ChecksumStage : public Stage {
 public:
  const Info& info() const override;
  sim::Task<> Process(StageEnv& env, const Placement& where,
                      const ChunkPtr& chunk) override;
};

// At-rest/in-flight scrambling of the wire bytes with an involutive XOR
// keystream (stand-in for a real cipher; the cost model carries the weight).
// Optional plugin; replicas undo it before decompression-independent use —
// config validation keeps it after compress so ciphertext never feeds LZW.
class XorEncryptStage : public Stage {
 public:
  const Info& info() const override;
  sim::Task<> Process(StageEnv& env, const Placement& where,
                      const ChunkPtr& chunk) override;
};

}  // namespace linefs::pipeline

#endif  // SRC_PIPELINE_STAGE_H_
