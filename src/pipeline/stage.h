// The NICFS persistence-pipeline stages (§3.1, §3.3).
//
// NICFS composes each client pipe's chain from DfsConfig::pipeline_stages:
// "validate" first, then "compress" and/or "checksum". Each stage runs through
// generic queue-fed workers on the local SmartNIC's cores; the cluster-wide
// StagePlacer (placer.h) grows a stage's workers while its queue builds and
// retires them once it drains.
//
// Contract:
//  - Process() is a coroutine that transforms one chunk in place. It charges
//    compute to the pipe's NIC pool (`env.pool`, `env.account`).
//  - A chunk carries one shared, immutable fslib::Payload (`image`, and
//    `wire` for what is sent). A stage that changes bytes allocates a new
//    payload and points `wire` at it; every other stage only reads. There is
//    no materialize switch here: with elided data the payload has no bytes,
//    so a byte transform finds nothing to do and the stage just charges its
//    modelled cycles.
//  - Optional stages may be skipped entirely under backpressure (the generic
//    worker's bypass, §3.3.2 generalized); required stages may not.
//  - Order within one chunk is the configured chain order; cross-chunk order
//    is restored downstream by reorder buffers.

#ifndef SRC_PIPELINE_STAGE_H_
#define SRC_PIPELINE_STAGE_H_

#include <cstdint>
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

// Per-pipe execution context shared by every Process() call on that pipe.
struct StageEnv {
  sim::Engine* engine = nullptr;
  const hw::FsCosts* costs = nullptr;
  bool coalescing = false;
  int compression_threads = 1;
  int node = 0;                  // Home node of the pipe (trace lane).
  sim::CpuPool* pool = nullptr;  // The home SmartNIC's cores.
  int account = 0;               // NICFS busy-accounting bucket within `pool`.
  std::string component;         // "nicfs.<n>": trace category.
  obs::TraceBuffer* trace = nullptr;
  fslib::Validator* validator = nullptr;
  fslib::LogArea* log = nullptr;
  obs::Counter* validation_failures = nullptr;
};

class Stage {
 public:
  // Declared identity, consulted by config validation and the generic workers.
  struct Info {
    std::string name;            // Metric/trace stage name.
    bool optional = false;       // Bypassable under backpressure (§3.3.2).
    bool shared_fanout = false;  // Output also feeds the publication pipeline.
  };

  virtual ~Stage() = default;
  virtual const Info& info() const = 0;
  // Transforms one chunk. Must be safe to call on failed chunks (skip the
  // transform, keep the order).
  virtual sim::Task<> Process(StageEnv& env, const ChunkPtr& chunk) = 0;
};

// Instantiates the stage named `name`; nullptr if there is no such stage.
std::unique_ptr<Stage> MakeStage(const std::string& name);

// Splits "validate, compress,checksum" into trimmed names (empty items kept
// as empty strings so validation can reject them explicitly).
std::vector<std::string> ParseStageList(const std::string& csv);

// Seal over wire bytes (CRC32C). Replicas recompute and compare.
uint64_t WireChecksum(const std::vector<uint8_t>& data);

// --- Stages ---------------------------------------------------------------------

// Parse + permission/lease validation (§3.3.1). Required; shared fan-out
// (feeds both publication and replication).
class ValidateStage : public Stage {
 public:
  const Info& info() const override;
  sim::Task<> Process(StageEnv& env, const ChunkPtr& chunk) override;
};

// LZW compression of the replication wire image (§5.4). Optional.
class CompressStage : public Stage {
 public:
  const Info& info() const override;
  sim::Task<> Process(StageEnv& env, const ChunkPtr& chunk) override;
};

// CRC32C seal over the outgoing wire bytes; replicas verify on receipt.
// Optional; must be the last stage so the seal covers what is actually sent
// (enforced by DfsConfig::Validate()).
class ChecksumStage : public Stage {
 public:
  const Info& info() const override;
  sim::Task<> Process(StageEnv& env, const ChunkPtr& chunk) override;
};

}  // namespace linefs::pipeline

#endif  // SRC_PIPELINE_STAGE_H_
