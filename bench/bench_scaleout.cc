// Scale-out sweep for the sharded namespace plane (DESIGN.md §13).
//
// Two experiments, both driving the open-loop load::Generator (Poisson
// arrivals, Zipfian popularity, multi-tenant namespace-heavy mix) against a
// LineFS cluster with the shard plane enabled:
//
//   1. Shard sweep: offered load held well past single-arbiter capacity,
//      num_shards in {1, 2, 4, 8}. With one shard every lease grant and
//      revocation in the cluster serializes through node 0's arbiter; adding
//      shards partitions the namespace (and its contention domains) across
//      arbiter nodes, so delivered metadata throughput should climb >= 1.5x
//      from 1 -> 4 shards and flatten once shards >= nodes.
//   2. Knee sweep: shard count fixed, offered arrival rate swept. Open-loop
//      arrivals do not self-throttle, so past the capacity knee queues fill
//      and p95 latency (arrival -> completion, queueing included) turns the
//      classic hockey stick while delivered throughput saturates.
//
// All labels carry the "scaleout_" prefix: scripts/bench_compare.py treats
// them as informational (no ratio gate) while still tracking the numbers.
//
// LINEFS_SCALEOUT_SMOKE=1 shrinks both sweeps for the CI bench-gate row.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/load/generator.h"

namespace linefs::bench {
namespace {

bool Smoke() {
  const char* v = std::getenv("LINEFS_SCALEOUT_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::vector<int> ShardSweep() { return Smoke() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8}; }
std::vector<double> KneeRates() {
  return Smoke() ? std::vector<double>{100000, 300000}
                 : std::vector<double>{50000, 100000, 200000, 300000, 400000};
}

constexpr int kNodes = 4;
constexpr int kClientsPerNode = 2;
constexpr int kKneeShards = 4;

core::DfsConfig ScaleConfig(int num_shards) {
  core::DfsConfig config = BenchConfig(core::DfsMode::kLineFS);
  config.num_nodes = kNodes;
  config.num_shards = num_shards;
  config.shard_placement = "hash";
  config.inode_count = 1 << 20;
  config.log_size = 16ULL << 20;
  // Short leases keep the grant plane hot: clients must refresh leases every
  // millisecond, so the sweep measures serial-arbiter-root capacity rather
  // than the client-side lease-cache hit rate.
  config.lease_duration = 1 * sim::kMillisecond;
  return config;
}

load::Options LoadOptions(double arrival_rate) {
  load::Options opts;
  opts.sessions = Smoke() ? 20000 : 200000;
  opts.arrival_rate = arrival_rate;
  opts.workers_per_client = 4;
  opts.max_backlog = 256;
  opts.duration = Smoke() ? 400 * sim::kMillisecond : 2 * sim::kSecond;
  opts.seed = 42;
  // mdtest-style private subtrees: the sweep measures the metadata plane's
  // capacity, not per-inode sharing contention (which no shard count fixes).
  opts.private_dirs = true;
  // Namespace-heavy multi-tenant mix: mostly metadata mutations that exercise
  // lease arbitration on shared parent directories, a trickle of small
  // writes. Tenants differ in popularity skew and weight.
  load::OpMix mix;
  mix.create = 0.30;
  mix.stat = 0.35;
  mix.rename = 0.10;
  mix.mkdir = 0.03;
  mix.unlink = 0.17;
  mix.write = 0.05;
  mix.fsync_prob = 0.1;
  uint64_t files = Smoke() ? 64 : 256;  // Per client under private_dirs.
  for (int t = 0; t < 4; ++t) {
    load::TenantSpec spec;
    spec.name = "t" + std::to_string(t);
    spec.weight = t == 0 ? 2.0 : 1.0;  // One hot tenant, three warm.
    spec.files = files;
    spec.dirs = 32;
    spec.zipf_exponent = t == 0 ? 1.1 : 0.9;
    spec.write_bytes = 4096;
    spec.mix = mix;
    opts.tenants.push_back(spec);
  }
  return opts;
}

struct Row {
  double offered_rate = 0;
  double delivered_rate = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
};

std::map<int, Row> g_shard_rows;          // num_shards -> row.
std::map<double, Row> g_knee_rows;        // arrival rate -> row.

Row RunPoint(const std::string& label, int num_shards, double arrival_rate) {
  Experiment exp(ScaleConfig(num_shards));
  std::vector<core::LibFs*> clients;
  for (int n = 0; n < kNodes; ++n) {
    for (int c = 0; c < kClientsPerNode; ++c) {
      clients.push_back(exp.cluster().CreateClient(n));
    }
  }
  load::Generator gen(&exp.engine(), clients, LoadOptions(arrival_rate));
  load::Report report;
  bool setup_ok = false;
  std::vector<sim::Task<>> tasks;
  tasks.push_back([](load::Generator* gen, sim::Engine* engine, load::Report* out,
                     bool* setup_ok) -> sim::Task<> {
    Status st = co_await gen->Setup();
    *setup_ok = st.ok();
    if (!st.ok()) {
      std::fprintf(stderr, "bench_scaleout: setup failed: %s\n", st.ToString().c_str());
      co_return;
    }
    // Let replica publication converge so every node resolves the population.
    co_await engine->SleepFor(300 * sim::kMillisecond);
    *out = co_await gen->Run();
  }(&gen, &exp.engine(), &report, &setup_ok));
  exp.RunAll(std::move(tasks));
  if (!setup_ok) {
    std::abort();
  }

  Row row;
  row.offered_rate = report.offered_rate;
  row.delivered_rate = report.delivered_rate;
  row.p50_us = static_cast<double>(report.latency.p50) / sim::kMicrosecond;
  row.p95_us = static_cast<double>(report.latency.p95) / sim::kMicrosecond;
  row.p99_us = static_cast<double>(report.latency.p99) / sim::kMicrosecond;
  row.p999_us = static_cast<double>(report.latency.p999) / sim::kMicrosecond;
  row.errors = report.errors;
  row.shed = report.shed;

  exp.SetLabel(label);
  exp.AddScalar("offered_ops_per_sec", row.offered_rate);
  exp.AddScalar("delivered_ops_per_sec", row.delivered_rate);
  exp.AddScalar("p50_latency_us", row.p50_us);
  exp.AddScalar("p95_latency_us", row.p95_us);
  exp.AddScalar("p99_latency_us", row.p99_us);
  exp.AddScalar("p999_latency_us", row.p999_us);
  exp.AddScalar("errors", static_cast<double>(row.errors));
  exp.AddScalar("shed", static_cast<double>(row.shed));
  exp.AddScalar("sessions_touched", static_cast<double>(report.sessions_touched));
  return row;
}

// Offered rate for the shard sweep: far enough past one arbiter's capacity
// that delivered throughput measures the plane, not the arrival process.
// LINEFS_SCALEOUT_RATE (ops/s, at least 1) overrides for capacity probing.
double SaturatingRate() {
  if (std::optional<double> rate = EnvKnob<double>("LINEFS_SCALEOUT_RATE", 1.0)) {
    return *rate;
  }
  // A single serial arbiter root delivers ~90k grants-bound ops/s in this
  // configuration; 2-3x past that keeps the 1-shard point firmly overloaded
  // while 4+ shards still absorb the offered stream.
  return Smoke() ? 200000.0 : 250000.0;
}

void BM_ShardSweep(benchmark::State& state) {
  int num_shards = static_cast<int>(state.range(0));
  Row row;
  for (auto _ : state) {
    row = RunPoint("scaleout_shards/" + std::to_string(num_shards), num_shards,
                   SaturatingRate());
  }
  g_shard_rows[num_shards] = row;
  state.counters["delivered_ops_s"] = row.delivered_rate;
  state.counters["p95_us"] = row.p95_us;
  state.SetLabel("shards=" + std::to_string(num_shards));
}

void BM_Knee(benchmark::State& state) {
  double rate = static_cast<double>(state.range(0));
  Row row;
  for (auto _ : state) {
    row = RunPoint("scaleout_knee/rate" + std::to_string(state.range(0)), kKneeShards, rate);
  }
  g_knee_rows[rate] = row;
  state.counters["delivered_ops_s"] = row.delivered_rate;
  state.counters["p95_us"] = row.p95_us;
  state.SetLabel("rate=" + std::to_string(state.range(0)));
}

void PrintTables() {
  std::printf("\n=== Scale-out: delivered metadata throughput vs shard count ===\n");
  std::printf("(open loop, %.0f ops/s offered, %d nodes, %d clients)\n", SaturatingRate(),
              kNodes, kNodes * kClientsPerNode);
  std::printf("%8s %14s %14s %10s %10s %10s %8s %8s\n", "shards", "offered/s", "delivered/s",
              "p50(us)", "p95(us)", "p99(us)", "errors", "shed");
  for (const auto& [shards, row] : g_shard_rows) {
    std::printf("%8d %14.0f %14.0f %10.0f %10.0f %10.0f %8llu %8llu\n", shards,
                row.offered_rate, row.delivered_rate, row.p50_us, row.p95_us, row.p99_us,
                static_cast<unsigned long long>(row.errors),
                static_cast<unsigned long long>(row.shed));
  }
  if (g_shard_rows.count(1) != 0 && g_shard_rows.count(4) != 0 &&
      g_shard_rows[1].delivered_rate > 0) {
    std::printf("speedup 1 -> 4 shards: %.2fx\n",
                g_shard_rows[4].delivered_rate / g_shard_rows[1].delivered_rate);
  }

  std::printf("\n=== Scale-out: latency knee (shards=%d, offered rate swept) ===\n",
              kKneeShards);
  std::printf("%12s %14s %10s %10s %8s\n", "offered/s", "delivered/s", "p95(us)", "p99(us)",
              "shed");
  for (const auto& [rate, row] : g_knee_rows) {
    std::printf("%12.0f %14.0f %10.0f %10.0f %8llu\n", rate, row.delivered_rate, row.p95_us,
                row.p99_us, static_cast<unsigned long long>(row.shed));
  }
}

}  // namespace
}  // namespace linefs::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  for (int shards : linefs::bench::ShardSweep()) {
    ::benchmark::RegisterBenchmark("BM_ShardSweep", linefs::bench::BM_ShardSweep)
        ->Arg(shards)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (double rate : linefs::bench::KneeRates()) {
    ::benchmark::RegisterBenchmark("BM_Knee", linefs::bench::BM_Knee)
        ->Arg(static_cast<int64_t>(rate))
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  ::benchmark::RunSpecifiedBenchmarks();
  linefs::bench::PrintTables();
  return linefs::bench::WriteBenchReport("scaleout");
}
