#include "perfbench/layers.h"

#include <algorithm>
#include <chrono>

#include "src/compress/lzw.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/obs/critical_path.h"

namespace perfbench {

namespace lf = linefs;

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Sum over nodes of one NICFS counter's growth during the phase.
template <typename Field>
double NicDelta(const Usage& before, const Usage& after, Field field) {
  double sum = 0;
  for (size_t n = 0; n < after.nodes.size(); ++n) {
    sum += static_cast<double>(after.nodes[n].nic.*field - before.nodes[n].nic.*field);
  }
  return sum;
}

uint64_t Bypassed(const Usage& u, const std::string& stage) {
  uint64_t sum = 0;
  for (const NodeUsage& n : u.nodes) {
    auto it = n.nic.stages.find(stage);
    if (it != n.nic.stages.end()) {
      sum += it->second.bypassed;
    }
  }
  return sum;
}

uint64_t CounterValue(const lf::obs::MetricsRegistry& registry, const std::string& name) {
  const lf::obs::Counter* c = registry.FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

const char* const kPipelineStages[] = {"fetch",    "validate", "compress", "checksum",
                                       "transfer", "publish",  "ack"};
// Engine labels reported one by one; every other label is summed as "other".
const std::vector<std::string> kEngineLabels = {
    "client",        "nicfs.fetch",    "nicfs.repl_recv", "nicfs.stage",
    "nicfs.transfer", "nicfs.publish", "lease.mirror",    "load.worker",
    "streamcluster", "rpc.timer",      "obs.profiler"};
const char* const kCriticalStages[] = {"copy",    "validate", "compress", "replicate-net",
                                       "persist", "ack",      "wait"};

void AddCriticalPath(lf::core::Cluster& cluster, lf::sim::Time measure_begin,
                     uint64_t trace_dropped, Metrics* out, std::vector<std::string>* errors) {
  lf::obs::CriticalPathAnalyzer analyzer(&cluster.trace());
  std::map<std::string, double> stage_sum_ns;
  uint64_t ops = 0;
  uint64_t mismatches = 0;
  for (const lf::obs::OpBreakdown& op : analyzer.Operations("fsync")) {
    if (op.begin < measure_begin) {
      continue;  // Set-up traffic.
    }
    ++ops;
    lf::sim::Time sum = 0;
    for (const auto& [stage, ns] : op.stage_ns) {
      sum += ns;
      stage_sum_ns[stage] += static_cast<double>(ns);
    }
    if (sum != op.duration()) {
      ++mismatches;
    }
  }
  for (const char* stage : kCriticalStages) {
    (*out)[std::string("cp.fsync.") + stage + "_us"] =
        Ratio(stage_sum_ns[stage] / lf::sim::kMicrosecond, static_cast<double>(ops));
  }
  (*out)["cp.fsync.ops"] = static_cast<double>(ops);
  (*out)["cp.fsync.stage_sum_mismatches"] = static_cast<double>(mismatches);
  // The ring overwrote spans, so some operations are missing or clipped.
  (*out)["cp.flagged"] = trace_dropped > 0 ? 1.0 : 0.0;
  if (mismatches > 0) {
    errors->push_back("critical path: " + std::to_string(mismatches) +
                      " fsync stage sums differ from their latency");
  }
}

}  // namespace

Usage TakeUsage(lf::core::Cluster& cluster, lf::sim::Engine& engine) {
  Usage u;
  u.events = engine.events_processed();
  u.clamped = engine.schedule_clamps();
  u.trace_dropped = cluster.trace().dropped();
  for (int id = 0; id < cluster.num_nodes(); ++id) {
    lf::hw::Node& node = cluster.hw_node(id);
    NodeUsage n;
    n.host_app_s = node.host_cpu().BusySeconds(node.acct_app());
    n.host_fs_s = node.host_cpu().BusySeconds(node.acct_fs());
    n.host_kworker_s = node.host_cpu().BusySeconds(node.acct_kworker());
    n.nic_s = node.nic().cpu().TotalBusySeconds();
    n.pcie_bytes = node.nic().pcie_h2n().total_bytes() + node.nic().pcie_n2h().total_bytes();
    n.net_bytes = cluster.fabric().tx(id).total_bytes();
    n.pm_bytes = node.pm().total_bytes_written();
    if (lf::core::NicFs* nicfs = cluster.nicfs(id)) {
      n.nic = nicfs->stats();
    }
    u.nodes.push_back(std::move(n));
  }
  return u;
}

void AddClusterLayers(lf::core::Cluster& cluster, const Usage& before, const Usage& after,
                      lf::sim::Time measure_begin, const WorkloadCounts& counts, Metrics* out,
                      std::vector<std::string>* errors) {
  Metrics& m = *out;
  const double user_bytes = static_cast<double>(counts.user_bytes_written);
  const double ops = static_cast<double>(counts.ops);

  // hw: CPU busy time per pool and account; node 0 is the primary.
  NodeUsage primary;
  NodeUsage replica;
  double pcie = 0;
  double net = 0;
  double pm = 0;
  for (size_t id = 0; id < after.nodes.size(); ++id) {
    const NodeUsage& a = after.nodes[id];
    const NodeUsage& b = before.nodes[id];
    NodeUsage& dst = id == 0 ? primary : replica;
    dst.host_app_s += a.host_app_s - b.host_app_s;
    dst.host_fs_s += a.host_fs_s - b.host_fs_s;
    dst.host_kworker_s += a.host_kworker_s - b.host_kworker_s;
    dst.nic_s += a.nic_s - b.nic_s;
    pcie += static_cast<double>(a.pcie_bytes - b.pcie_bytes);
    net += static_cast<double>(a.net_bytes - b.net_bytes);
    pm += static_cast<double>(a.pm_bytes - b.pm_bytes);
  }
  for (const auto& [role, u] : {std::pair<std::string, const NodeUsage*>{"primary", &primary},
                                {"replica", &replica}}) {
    m["hw.host_cpu_busy_s." + role + ".app"] = u->host_app_s;
    m["hw.host_cpu_busy_s." + role + ".fs"] = u->host_fs_s;
    m["hw.host_cpu_busy_s." + role + ".kworker"] = u->host_kworker_s;
    m["hw.nic_cpu_busy_s." + role] = u->nic_s;
  }
  m["hw.pcie_bytes_per_user_byte"] = Ratio(pcie, user_bytes);
  m["hw.net_bytes_per_user_byte"] = Ratio(net, user_bytes);
  m["pmem.bytes_written_per_user_byte"] = Ratio(pm, user_bytes);

  // nicfs / pipeline: per-stage latency on the primary (since boot), stalls,
  // bypasses, compression, retries and errors (summed over nodes).
  const lf::core::NicFs::StatsSnapshot& nic0 = after.nodes.at(0).nic;
  for (const char* stage : kPipelineStages) {
    auto it = nic0.stages.find(stage);
    double p50 = it != nic0.stages.end() ? static_cast<double>(it->second.latency.p50) : 0.0;
    m[std::string("nicfs.stage.") + stage + ".p50_us"] = p50 / lf::sim::kMicrosecond;
  }
  using Snap = lf::core::NicFs::StatsSnapshot;
  const double fetched = NicDelta(before, after, &Snap::chunks_fetched);
  m["nicfs.flow_ctrl_stall_ms"] = NicDelta(before, after, &Snap::flow_ctrl_stall_ns) / 1e6;
  for (const char* stage : {"compress", "checksum"}) {
    m[std::string("nicfs.bypassed_frac.") + stage] =
        Ratio(static_cast<double>(Bypassed(after, stage) - Bypassed(before, stage)), fetched);
  }
  const double raw = NicDelta(before, after, &Snap::raw_repl_bytes);
  m["nicfs.compress_ratio"] = raw > 0 ? NicDelta(before, after, &Snap::wire_bytes) / raw : 1.0;
  m["nicfs.repl_retransmits"] = NicDelta(before, after, &Snap::repl_retransmits);
  m["nicfs.repl_send_failures"] = NicDelta(before, after, &Snap::repl_send_failures);
  m["nicfs.checksum_mismatches"] = NicDelta(before, after, &Snap::checksum_mismatches);
  m["nicfs.validation_failures"] = NicDelta(before, after, &Snap::validation_failures);

  const lf::obs::MetricsRegistry& registry = cluster.metrics();
  for (const char* where : {"local", "remote", "host"}) {
    m[std::string("placer.placements.") + where] =
        static_cast<double>(CounterValue(registry, std::string("placer.placements.") + where));
  }

  // Namespace plane: leases, cross-shard transactions, open-loop shedding.
  m["lease.grants_per_op"] = Ratio(NicDelta(before, after, &Snap::lease_grants), ops);
  m["lease.revocations_per_op"] = Ratio(NicDelta(before, after, &Snap::lease_revocations), ops);
  for (const char* what : {"started", "committed", "aborted"}) {
    uint64_t sum = 0;
    for (int id = 0; id < cluster.num_nodes(); ++id) {
      sum += CounterValue(registry, "txn." + std::to_string(id) + "." + what);
    }
    m[std::string("txn.") + what] = static_cast<double>(sum);
  }
  m["load.shed"] = static_cast<double>(counts.load_shed);
  m["load.errors"] = static_cast<double>(counts.load_errors);

  // libfs counters over every client (the per-call latencies come from the
  // workload's own timing).
  uint64_t stalls = 0;
  uint64_t nic_reads = 0;
  for (int c = 0; c < cluster.client_count(); ++c) {
    lf::core::LibFs::Stats s = cluster.client(c)->stats();
    stalls += s.log_stall_waits;
    nic_reads += s.reads_nic_routed;
  }
  m["libfs.log_stall_waits"] = static_cast<double>(stalls);
  m["libfs.nic_read_frac"] =
      Ratio(static_cast<double>(nic_reads), static_cast<double>(counts.reads));

  // Engine health and trace-ring overflow.
  m["sim.schedule_clamped"] = static_cast<double>(after.clamped - before.clamped);
  const uint64_t dropped = after.trace_dropped - before.trace_dropped;
  m["obs.trace_dropped"] = static_cast<double>(dropped);
  AddCriticalPath(cluster, measure_begin, dropped, out, errors);
}

void AddProfilerLayers(const lf::obs::SelfProfiler& profiler, double run_s,
                       uint64_t replica_chunks, Metrics* out) {
  Metrics& m = *out;
  const std::vector<std::string>& labels = kEngineLabels;
  for (const std::string& label : labels) {
    m["sim.host_self_s." + label] = 0;
    m["sim.events." + label] = 0;
  }
  m["sim.host_self_s.other"] = 0;
  m["sim.events.other"] = 0;
  for (const lf::obs::SelfProfiler::ComponentStat& c : profiler.Components()) {
    const bool named = std::find(labels.begin(), labels.end(), c.label) != labels.end();
    const std::string key = named ? c.label : "other";
    m["sim.host_self_s." + key] += static_cast<double>(c.wall_ns) / 1e9;
    m["sim.events." + key] += static_cast<double>(c.events);
  }
  m["sim.events"] = static_cast<double>(profiler.total_events());
  m["sim.queue_depth_mean"] = profiler.mean_queue_depth();
  // Host time of the measured phase that no engine event accounts for:
  // harness work between events plus the benchmark's own bookkeeping.
  m["sim.host_self_gap_frac"] =
      run_s > 0 ? 1.0 - static_cast<double>(profiler.total_wall_ns()) / 1e9 / run_s : 0.0;
  m["nicfs.repl_recv.events_per_chunk"] =
      Ratio(m["sim.events.nicfs.repl_recv"], static_cast<double>(replica_chunks));
}

void AddLatencyLayer(const std::string& name, const lf::sim::LatencyRecorder& r, Metrics* out) {
  for (double p : {50.0, 99.0}) {
    double us = r.count() > 0 ? lf::sim::ToMicros(r.Percentile(p)) : 0.0;
    (*out)[name + (p == 50.0 ? ".p50" : ".p99")] = us;
  }
}

void AddCompressLayer(const std::vector<uint8_t>& payload, Metrics* out,
                      std::vector<std::string>* errors) {
  auto start = std::chrono::steady_clock::now();
  std::vector<uint8_t> packed = lf::compress::LzwCompress(payload);
  double compress_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  lf::Result<std::vector<uint8_t>> unpacked = lf::compress::LzwDecompress(packed);
  if (!unpacked.ok() || *unpacked != payload) {
    errors->push_back("compress: LZW round trip of the payload is not exact");
  }
  (*out)["compress.host_mb_s"] =
      compress_s > 0 ? static_cast<double>(payload.size()) / 1e6 / compress_s : 0.0;
  (*out)["compress.ratio"] = Ratio(static_cast<double>(packed.size()),
                                   static_cast<double>(payload.size()));
}

}  // namespace perfbench
