#include "src/pipeline/stage.h"

#include <algorithm>
#include <cstdio>

#include "src/compress/lzw.h"
#include "src/fslib/oplog.h"
#include "src/fslib/types.h"
#include "src/sim/sync.h"

namespace linefs::pipeline {

namespace {

sim::Priority ChunkPriority(const ChunkPtr& chunk) {
  return chunk->urgent ? sim::Priority::kRealtime : sim::Priority::kNormal;
}

}  // namespace

std::unique_ptr<Stage> MakeStage(const std::string& name) {
  if (name == "validate") {
    return std::make_unique<ValidateStage>();
  }
  if (name == "compress") {
    return std::make_unique<CompressStage>();
  }
  if (name == "checksum") {
    return std::make_unique<ChecksumStage>();
  }
  return nullptr;
}

std::vector<std::string> ParseStageList(const std::string& csv) {
  std::vector<std::string> names;
  std::string current;
  auto flush = [&] {
    size_t begin = current.find_first_not_of(" \t");
    size_t end = current.find_last_not_of(" \t");
    names.push_back(begin == std::string::npos
                        ? std::string()
                        : current.substr(begin, end - begin + 1));
    current.clear();
  };
  for (char c : csv) {
    if (c == ',') {
      flush();
    } else {
      current += c;
    }
  }
  flush();
  return names;
}

uint64_t WireChecksum(const std::vector<uint8_t>& data) {
  return fslib::Crc32c(data.data(), data.size());
}

// --- ValidateStage ------------------------------------------------------------

const Stage::Info& ValidateStage::info() const {
  static const Info kInfo{"validate", /*optional=*/false, /*shared_fanout=*/true};
  return kInfo;
}

sim::Task<> ValidateStage::Process(StageEnv& env, const ChunkPtr& chunk) {
  obs::Span span(env.trace, env.component, "validate", env.node, chunk->client,
                 chunk->no, chunk->ctx);
  // Downstream stages (compress/transfer/publish) nest under the validation
  // span, which itself nests under fetch.
  chunk->ctx = span.context();
  Result<std::vector<fslib::ParsedEntry>> parsed =
      env.log->ParsePayload(*chunk->image, chunk->from);
  uint64_t n = parsed.ok() ? parsed->size() : 1;
  uint64_t cycles = env.costs->validate_entry_cycles * n +
                    static_cast<uint64_t>(env.costs->validate_cycles_per_byte *
                                          static_cast<double>(chunk->bytes()));
  if (env.coalescing) {
    cycles += env.costs->coalesce_entry_cycles * n;
  }
  co_await env.pool->RunCycles(cycles, ChunkPriority(chunk), env.account);
  if (!parsed.ok()) {
    env.validation_failures->Increment();
    chunk->failed = true;
  } else {
    Status st = env.validator->Validate(*parsed);
    if (!st.ok()) {
      env.validation_failures->Increment();
      chunk->failed = true;
      std::fprintf(stderr, "nicfs[%d]: VALIDATION of client %d chunk %llu failed: %s\n",
                   env.node, chunk->client, (unsigned long long)chunk->no,
                   st.ToString().c_str());
    } else {
      chunk->entries = std::move(*parsed);
    }
  }
}

// --- CompressStage ------------------------------------------------------------

const Stage::Info& CompressStage::info() const {
  static const Info kInfo{"compress", /*optional=*/true, /*shared_fanout=*/false};
  return kInfo;
}

sim::Task<> CompressStage::Process(StageEnv& env, const ChunkPtr& chunk) {
  if (chunk->failed || chunk->wire->bytes.empty()) {
    co_return;
  }
  obs::Span span(env.trace, env.component, "compress", env.node, chunk->client,
                 chunk->no, chunk->ctx);
  // Parallel compression: the chunk is split across the NIC's cores.
  uint64_t total_cycles = static_cast<uint64_t>(env.costs->compress_cycles_per_byte *
                                                static_cast<double>(chunk->bytes()));
  int threads = std::max(1, env.compression_threads);
  std::vector<sim::Task<>> shards;
  shards.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    shards.push_back(
        env.pool->RunCycles(total_cycles / threads, sim::Priority::kNormal, env.account));
  }
  co_await sim::AwaitAll(env.engine, std::move(shards));
  chunk->wire = std::make_shared<const fslib::Payload>(
      fslib::Payload{compress::LzwCompress(chunk->wire->bytes), {}});
  chunk->wire_compressed = true;
}

// --- ChecksumStage ------------------------------------------------------------

const Stage::Info& ChecksumStage::info() const {
  static const Info kInfo{"checksum", /*optional=*/true, /*shared_fanout=*/false};
  return kInfo;
}

sim::Task<> ChecksumStage::Process(StageEnv& env, const ChunkPtr& chunk) {
  if (chunk->failed) {
    co_return;
  }
  obs::Span span(env.trace, env.component, "checksum", env.node, chunk->client,
                 chunk->no, chunk->ctx);
  co_await env.pool->RunCycles(
      static_cast<uint64_t>(env.costs->checksum_cycles_per_byte *
                            static_cast<double>(chunk->wire_bytes())),
      ChunkPriority(chunk), env.account);
  if (!chunk->wire->bytes.empty()) {
    chunk->wire_checksum = WireChecksum(chunk->wire->bytes);
    chunk->wire_checksummed = true;
  }
}

}  // namespace linefs::pipeline
