// Codec microbenchmark: host speed of the real data-path kernels the
// simulator runs on materialized chunks — LZW compress and decompress (the
// NICFS compression stage) and CRC32C (log entry and chunk checksums) —
// isolated from any file-system model.
//
// Input is the mixed payload recipe (seeded 64..1024-byte runs, ~60% zero)
// at a 16 KB chunk and a 4 MB chunk. Each run reports
//
//   codec.lzw_compress_mb_s, codec.lzw_decompress_mb_s  (MB/s of input)
//   codec.crc32c_gb_s        dispatched Crc32c (SSE4.2 where available)
//   codec.crc32c_sw_gb_s     portable slicing-by-8 Crc32cSoftware
//   codec.lzw_ratio          compressed / original bytes
//
// into BENCH_codec.json. The scalars are informational: bench_compare does
// not gate them (no committed baseline), since wall-clock rates vary by host.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/compress/lzw.h"
#include "src/fslib/types.h"
#include "src/workloads/payload.h"

namespace linefs::bench {
namespace {

// Input bytes pushed through each LZW direction per measurement; CRC32C is
// an order of magnitude faster and gets kCrcScale times as many.
constexpr uint64_t kLzwBytes = 64ULL << 20;
constexpr uint64_t kCrcScale = 16;

template <typename Fn>
double RatePerSec(uint64_t bytes, uint64_t reps, Fn fn) {
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < reps; ++i) {
    fn();
  }
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return wall > 0 ? static_cast<double>(bytes * reps) / wall : 0;
}

void BM_Codec(benchmark::State& state) {
  const uint64_t size = static_cast<uint64_t>(state.range(0));
  const std::vector<uint8_t> payload = workloads::MixedPayload(size, 1);
  const std::vector<uint8_t> packed = compress::LzwCompress(payload);
  Result<std::vector<uint8_t>> unpacked = compress::LzwDecompress(packed);
  if (!unpacked.ok() || *unpacked != payload) {
    state.SkipWithError("LZW round trip is not exact");
    return;
  }
  const uint64_t reps = std::max<uint64_t>(1, kLzwBytes / size);
  const std::string label = size >= (1 << 20) ? std::to_string(size >> 20) + "MB"
                                              : std::to_string(size >> 10) + "KB";
  double compress_rate = 0;
  double decompress_rate = 0;
  double crc_rate = 0;
  double crc_sw_rate = 0;
  for (auto _ : state) {
    compress_rate = RatePerSec(size, reps, [&] {
      std::vector<uint8_t> out = compress::LzwCompress(payload);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    });
    decompress_rate = RatePerSec(size, reps, [&] {
      Result<std::vector<uint8_t>> out = compress::LzwDecompress(packed);
      benchmark::DoNotOptimize(out->data());
      benchmark::ClobberMemory();
    });
    uint32_t crc = 0;
    crc_rate = RatePerSec(size, reps * kCrcScale, [&] {
      crc = fslib::Crc32c(payload.data(), payload.size(), crc);
      benchmark::DoNotOptimize(crc);
    });
    crc_sw_rate = RatePerSec(size, reps * kCrcScale, [&] {
      crc = fslib::Crc32cSoftware(payload.data(), payload.size(), crc);
      benchmark::DoNotOptimize(crc);
    });
    obs::BenchRun run;
    run.label = "payload_" + label;
    run.scalars.emplace_back("codec.lzw_compress_mb_s", compress_rate / 1e6);
    run.scalars.emplace_back("codec.lzw_decompress_mb_s", decompress_rate / 1e6);
    run.scalars.emplace_back("codec.crc32c_gb_s", crc_rate / 1e9);
    run.scalars.emplace_back("codec.crc32c_sw_gb_s", crc_sw_rate / 1e9);
    run.scalars.emplace_back("codec.lzw_ratio", compress::CompressionRatio(size, packed.size()));
    BenchReport::Get().AddRun(std::move(run));
  }
  state.counters["lzw_c_MB/s"] = compress_rate / 1e6;
  state.counters["lzw_d_MB/s"] = decompress_rate / 1e6;
  state.counters["crc_GB/s"] = crc_rate / 1e9;
  state.counters["crc_sw_GB/s"] = crc_sw_rate / 1e9;
  state.SetLabel("payload_" + label);
}

}  // namespace
}  // namespace linefs::bench

BENCHMARK(linefs::bench::BM_Codec)
    ->Arg(16 << 10)
    ->Arg(4 << 20)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return linefs::bench::WriteBenchReport("codec");
}
