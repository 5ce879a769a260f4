// Per-layer metrics, read from the cluster's public accessors.
//
// A Usage is a point-in-time copy of every resource counter the benchmark
// decomposes end-to-end results into (CPU pools per account, PCIe and network
// links, PM bytes, engine counters); the difference of two Usages is what the
// measured phase consumed.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/nicfs.h"
#include "src/obs/selfprof.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"

namespace perfbench {

using Metrics = std::map<std::string, double>;

struct NodeUsage {
  double host_app_s = 0;
  double host_fs_s = 0;
  double host_kworker_s = 0;
  double nic_s = 0;
  uint64_t pcie_bytes = 0;  // Both directions.
  uint64_t net_bytes = 0;   // Egress.
  uint64_t pm_bytes = 0;    // Bytes stored into the node's PM region.
  linefs::core::NicFs::StatsSnapshot nic;  // Empty for non-LineFS nodes.
};

struct Usage {
  uint64_t events = 0;
  uint64_t clamped = 0;
  uint64_t trace_dropped = 0;
  std::vector<NodeUsage> nodes;
};

Usage TakeUsage(linefs::core::Cluster& cluster, linefs::sim::Engine& engine);

// What the workload itself counted during the measured phase.
struct WorkloadCounts {
  uint64_t user_bytes_written = 0;
  uint64_t ops = 0;           // Operations the workload issued.
  uint64_t reads = 0;         // LibFs reads issued.
  uint64_t load_shed = 0;     // Open-loop arrivals dropped at a full queue.
  uint64_t load_errors = 0;   // Open-loop ops that completed with an error.
};

// Adds the cluster-derived per-layer metrics (hw, pmem, nicfs/pipeline,
// placer, lease, txn, libfs counters, critical path) for the phase between
// `before` and `after`. Records a failed check in `errors` when a
// critical-path stage sum differs from its operation's latency.
void AddClusterLayers(linefs::core::Cluster& cluster, const Usage& before, const Usage& after,
                      linefs::sim::Time measure_begin, const WorkloadCounts& counts,
                      Metrics* out, std::vector<std::string>* errors);

// Adds the engine self-profile: per-label host self time and event counts,
// queue depth, and how far the label sum falls short of `run_s`.
void AddProfilerLayers(const linefs::obs::SelfProfiler& profiler, double run_s,
                       uint64_t replica_chunks, Metrics* out);

// Adds "<name>.p50" and "<name>.p99" in microseconds (0 without samples).
void AddLatencyLayer(const std::string& name, const linefs::sim::LatencyRecorder& r,
                     Metrics* out);

// Times an LZW round trip of `payload` on the host, checking it is exact.
// Adds compress.host_mb_s and compress.ratio.
void AddCompressLayer(const std::vector<uint8_t>& payload, Metrics* out,
                      std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
