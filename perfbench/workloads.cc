#include "perfbench/workloads.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "src/core/libfs.h"
#include "src/load/generator.h"
#include "src/sim/random.h"

namespace perfbench {

namespace lf = linefs;
using lf::sim::Task;
using lf::sim::Time;

namespace {

constexpr uint64_t kIo = 16 << 10;
// Workloads that elide payloads time LZW on a seeded payload of this size.
constexpr uint64_t kCompressProbeBytes = 4ULL << 20;
// seqwrite_idle: 8 writers, each file twice the 64 MB private log.
constexpr int kSeqClients = 8;
constexpr uint64_t kSeqFileBytes = 128ULL << 20;
// syncwrite_busy: write+fsync pairs, and streamcluster iterations (100 ms of
// solo work each) sized to outlast the write phase.
constexpr uint64_t kSyncOps = 2000;
constexpr int kCoRunnerIterations = 10;
// metadata_openloop: offered rate, workers per client, arrival window and
// probe write size. Two workers per client make arrivals queue now and then
// well below the knee, so the median includes queueing.
constexpr double kOpenLoopRate = 100000.0;
constexpr int kOpenLoopWorkers = 2;
constexpr Time kOpenLoopDuration = 500 * lf::sim::kMillisecond;
constexpr uint64_t kProbeIo = 4096;

// Configuration shared by every workload: LineFS with chain replication at
// the repository's benchmark scale (payload bytes elided unless a workload
// materializes them; simulated time is unaffected).
lf::core::DfsConfig BaseConfig() {
  lf::core::DfsConfig config;
  config.mode = lf::core::DfsMode::kLineFS;
  config.repl.protocol = "chain";
  config.num_nodes = 3;
  config.pm_size = 6ULL << 30;
  config.log_size = 64ULL << 20;
  config.inode_count = 1 << 20;
  config.chunk_size = 4ULL << 20;
  config.materialize_data = false;
  config.host_fs_priority = lf::sim::Priority::kNormal;
  return config;
}

// The LibFs calls of one repetition: counts, bytes, and per-call latency in
// simulated time (the libfs.* layer metrics).
struct OpLog {
  lf::sim::LatencyRecorder write;  // Pwrite.
  lf::sim::LatencyRecorder read;   // Pread.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t reads = 0;
  uint64_t mismatches = 0;  // Read-back blocks that differ from what was written.

  // Books one call; `kind` (optional) records its latency `dt`.
  void Count(lf::sim::LatencyRecorder* kind, Time dt, bool ok) {
    ++attempted;
    if (kind != nullptr) {
      kind->Record(dt);
    }
    if (!ok) {
      ++failed;
    }
  }
};

// Seeded payload: runs of 64..1024 bytes, about 60% of them zero-filled and
// the rest random, so LZW has real work and a ratio to find.
std::vector<uint8_t> MakePayload(uint64_t bytes, uint64_t seed) {
  lf::sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
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

// Polls Stat until `path` shows `size` (replica publication is
// asynchronous), for at most ten simulated seconds. Sets *ok to 1 on success.
Task<> AwaitSize(lf::core::LibFs* fs, std::string path, uint64_t size, char* ok) {
  for (int i = 0; i < 1000; ++i) {
    lf::Result<lf::fslib::FileAttr> attr = co_await fs->Stat(path);
    if (attr.ok() && attr->size == size) {
      *ok = 1;
      co_return;
    }
    co_await fs->engine()->SleepFor(10 * lf::sim::kMillisecond);
  }
}

// Reads `size` bytes of `path` in `io`-byte blocks, in `order` (block
// indices; nullptr = sequential), comparing against `expect` (nullptr:
// lengths only).
Task<> ReadBlocks(lf::core::LibFs* fs, std::string path, uint64_t size, uint64_t io,
                  const std::vector<uint64_t>* order, const std::vector<uint8_t>* expect,
                  OpLog* log) {
  lf::sim::Engine* engine = fs->engine();
  lf::Result<int> fd = co_await fs->Open(path, lf::fslib::kOpenRead);
  log->Count(nullptr, 0, fd.ok());
  if (!fd.ok()) {
    co_return;
  }
  std::vector<uint8_t> buf(io);
  const uint64_t blocks = (size + io - 1) / io;
  for (uint64_t i = 0; i < blocks; ++i) {
    const uint64_t off = (order != nullptr ? (*order)[i] : i) * io;
    Time t0 = engine->Now();
    lf::Result<uint64_t> r = co_await fs->Pread(*fd, buf, off);
    const uint64_t want = std::min(io, size - off);
    const bool ok = r.ok() && *r == want;
    log->Count(&log->read, engine->Now() - t0, ok);
    ++log->reads;
    if (ok) {
      log->bytes_read += want;
      if (expect != nullptr &&
          !std::equal(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(want),
                      expect->begin() + static_cast<std::ptrdiff_t>(off))) {
        ++log->mismatches;
      }
    }
  }
  log->Count(nullptr, 0, (co_await fs->Close(*fd)).ok());
}

// Pwrites [start, start + bytes) of `fd` in `io`-byte blocks. A payload
// longer than one block supplies each block's bytes at its file offset; a
// one-block payload is written everywhere. With `pairs`, every write is
// followed by an fsync and the pair's latency is a durability sample;
// otherwise one fsync closes the stream and is the sample.
Task<> WriteAndSync(lf::core::LibFs* fs, int fd, uint64_t start, uint64_t bytes, uint64_t io,
                    const std::vector<uint8_t>* payload, bool pairs, OpLog* log,
                    SimOutcome* sim) {
  lf::sim::Engine* engine = fs->engine();
  for (uint64_t off = start; off < start + bytes; off += io) {
    std::span<const uint8_t> block(payload->data() + (payload->size() > io ? off : 0), io);
    Time t0 = engine->Now();
    lf::Result<uint64_t> w = co_await fs->Pwrite(fd, block, off);
    const bool ok = w.ok() && *w == io;
    log->Count(&log->write, engine->Now() - t0, ok);
    log->bytes_written += ok ? io : 0;
    if (pairs || off + io >= start + bytes) {
      Time t1 = engine->Now();
      lf::Status st = co_await fs->Fsync(fd);
      log->Count(nullptr, 0, st.ok());
      sim->fsync.push_back(engine->Now() - (pairs ? t0 : t1));
    }
  }
}

// Per-layer metrics every workload reports from a traced repetition.
void AddLayers(Bed& bed, const OpLog& log, WorkloadCounts counts, RepResult* out) {
  counts.reads = log.reads;
  AddClusterLayers(bed.cluster(), bed.usage_before(), bed.usage_after(), bed.measure_begin(),
                   counts, &out->layers, &out->errors);
  // Chain replication: every replica receives each transferred chunk once,
  // plus one receive per retransmission.
  uint64_t replica_chunks = 0;
  const uint64_t hops = static_cast<uint64_t>(bed.cluster().num_nodes() - 1);
  for (size_t n = 0; n < bed.usage_after().nodes.size(); ++n) {
    const auto& a = bed.usage_after().nodes[n].nic;
    const auto& b = bed.usage_before().nodes[n].nic;
    replica_chunks += (a.chunks_transferred - b.chunks_transferred) * hops +
                      (a.repl_retransmits - b.repl_retransmits);
  }
  AddProfilerLayers(*bed.profiler(), out->run_s, replica_chunks, &out->layers);
  AddLatencyLayer("libfs.write_us", log.write, &out->layers);
  AddLatencyLayer("libfs.pread_us", log.read, &out->layers);
}

// --- seqwrite_idle ------------------------------------------------------------------

struct SeqFile {
  lf::core::LibFs* fs = nullptr;
  std::string path;
  uint64_t bytes = 0;
};

// One writer: open, stream the file, fsync, close. The file is the unit of
// work; its latency runs from open to the fsync's return.
Task<> SeqWriter(SeqFile* f, const std::vector<uint8_t>* io, OpLog* log, SimOutcome* sim) {
  const Time t0 = f->fs->engine()->Now();
  lf::Result<int> fd =
      co_await f->fs->Open(f->path, lf::fslib::kOpenCreate | lf::fslib::kOpenWrite);
  log->Count(nullptr, 0, fd.ok());
  if (!fd.ok()) {
    co_return;
  }
  co_await WriteAndSync(f->fs, *fd, 0, f->bytes, kIo, io, /*pairs=*/false, log, sim);
  sim->unit.push_back(f->fs->engine()->Now() - t0);
  log->Count(nullptr, 0, (co_await f->fs->Close(*fd)).ok());
}

// Fig. 4's saturating point: 8 clients on node 0 stream private files in
// 16 KB writes, one fsync each at the end, replicas idle, payloads elided.
// Each file is twice the 64 MB private log, so log reclaim runs. Every
// client then reads its file back sequentially.
RepResult SeqwriteIdle(const Params& params) {
  const int clients = params.small ? 2 : kSeqClients;
  const uint64_t base = params.small ? (8ULL << 20) : kSeqFileBytes;
  lf::core::DfsConfig config = BaseConfig();
  config.max_clients = clients + 2;  // Cluster-wide: writers plus two checkers.
  RepResult out;
  Bed bed(config, &out);
  // The seed lengthens each file by up to 63 writes.
  lf::sim::Rng rng(params.seed);
  std::vector<SeqFile> files(clients);
  for (int c = 0; c < clients; ++c) {
    files[c].fs = bed.cluster().CreateClient(0);
    files[c].path = "/w" + std::to_string(c) + ".dat";
    files[c].bytes = base + rng.Uniform(64) * kIo;
  }
  std::vector<lf::core::LibFs*> checkers = {bed.cluster().CreateClient(1),
                                            bed.cluster().CreateClient(2)};
  const std::vector<uint8_t> io(kIo);  // Elided: only its length matters.
  OpLog log;
  SimOutcome& sim = out.sim;

  bed.BeginMeasure(params.traced);
  std::vector<Task<>> writers;
  for (SeqFile& f : files) {
    writers.push_back(SeqWriter(&f, &io, &log, &sim));
  }
  bed.Run(std::move(writers));
  sim.write_time = bed.engine().Now() - bed.measure_begin();
  std::vector<Task<>> readers;
  for (SeqFile& f : files) {
    readers.push_back(ReadBlocks(f.fs, f.path, f.bytes, kIo, nullptr, nullptr, &log));
  }
  const Time read_start = bed.engine().Now();
  bed.Run(std::move(readers));
  sim.read_time = bed.engine().Now() - read_start;
  bed.EndMeasure();

  // Checks: every call succeeded and each replica node sees every file at
  // its full size.
  uint64_t expected = 0;
  for (const SeqFile& f : files) {
    expected += f.bytes;
  }
  bed.Check(log.failed == 0, "seqwrite_idle: " + std::to_string(log.failed) + " calls failed");
  bed.Check(log.bytes_written == expected, "seqwrite_idle: short writes");
  bed.Check(log.bytes_read == expected, "seqwrite_idle: short read-back");
  std::vector<char> ok(files.size() * checkers.size(), 0);
  std::vector<Task<>> stats;
  for (size_t r = 0; r < checkers.size(); ++r) {
    for (size_t i = 0; i < files.size(); ++i) {
      stats.push_back(AwaitSize(checkers[r], files[i].path, files[i].bytes,
                                &ok[r * files.size() + i]));
    }
  }
  bed.Run(std::move(stats));
  const auto missing = std::count(ok.begin(), ok.end(), 0);
  bed.Check(missing == 0, "seqwrite_idle: " + std::to_string(missing) +
                              " files not at full size on a replica node");

  out.attempted = log.attempted;
  out.failed = log.failed;
  sim.bytes_written = log.bytes_written;
  sim.bytes_read = log.bytes_read;
  sim.ops_ok = log.attempted - log.failed;
  sim.ops_time = bed.measured_time();
  if (params.traced) {
    WorkloadCounts counts;
    counts.user_bytes_written = log.bytes_written;
    counts.ops = log.attempted;
    AddLayers(bed, log, counts, &out);
  }
  if (params.first_rep) {
    AddCompressLayer(MakePayload(kCompressProbeBytes, params.seed), &out.layers, &out.errors);
  }
  return out;
}

// --- syncwrite_busy -----------------------------------------------------------------

// Table 3's isolation claim: one client doing 16 KB write + fsync back to
// back while a 48-thread streamcluster shares both replica hosts at equal
// priority, with materialized data through validate, compress (LZW) and
// checksum (CRC32C). The file is then read back at seeded random offsets and
// every byte checked. The write + fsync pair is the unit of work.
RepResult SyncwriteBusy(const Params& params) {
  const uint64_t ops = params.small ? 200 : kSyncOps;
  lf::core::DfsConfig config = BaseConfig();
  config.materialize_data = true;
  config.compression = true;
  config.pipeline_stages = "validate,compress,checksum";
  RepResult out;
  Bed bed(config, &out);
  lf::workloads::Streamcluster::Options co_runner;
  co_runner.threads = 48;
  co_runner.iterations = params.small ? 2 : kCoRunnerIterations;
  co_runner.work_per_iteration = 100 * lf::sim::kMillisecond;
  co_runner.bytes_per_iteration = 80ULL << 20;
  bed.StartCoRunner({1, 2}, co_runner);
  bed.Drain(50 * lf::sim::kMillisecond);  // Let the co-runner occupy every core.
  lf::core::LibFs* writer = bed.cluster().CreateClient(0);
  lf::core::LibFs* checker = bed.cluster().CreateClient(1);
  const std::string path = "/sync.dat";
  const std::vector<uint8_t> payload = MakePayload(ops * kIo, params.seed);
  std::vector<uint64_t> order(ops);
  std::iota(order.begin(), order.end(), 0);
  lf::sim::Rng rng(params.seed ^ 0x5EEDULL);
  rng.Shuffle(&order);
  OpLog log;
  SimOutcome& sim = out.sim;

  bed.BeginMeasure(params.traced);
  std::vector<Task<>> writes;
  writes.push_back([](lf::core::LibFs* fs, std::string path,
                      const std::vector<uint8_t>* payload, OpLog* log,
                      SimOutcome* sim) -> Task<> {
    lf::Result<int> fd =
        co_await fs->Open(path, lf::fslib::kOpenCreate | lf::fslib::kOpenWrite);
    log->Count(nullptr, 0, fd.ok());
    if (fd.ok()) {
      co_await WriteAndSync(fs, *fd, 0, payload->size(), kIo, payload, /*pairs=*/true, log,
                            sim);
      log->Count(nullptr, 0, (co_await fs->Close(*fd)).ok());
    }
  }(writer, path, &payload, &log, &sim));
  bed.Run(std::move(writes));
  sim.write_time = bed.engine().Now() - bed.measure_begin();
  sim.unit = sim.fsync;
  const bool co_runner_busy = bed.co_runners_running();
  std::vector<Task<>> reads;
  reads.push_back(ReadBlocks(writer, path, payload.size(), kIo, &order, &payload, &log));
  const Time read_start = bed.engine().Now();
  bed.Run(std::move(reads));
  sim.read_time = bed.engine().Now() - read_start;
  bed.EndMeasure();

  // Checks: the co-runner was busy throughout the writes, every call
  // succeeded, the writer read back every byte it wrote, and so does a client
  // on a replica node once publication converges.
  bed.Check(co_runner_busy, "syncwrite_busy: the co-runner ended before the write phase");
  bed.Check(log.failed == 0, "syncwrite_busy: " + std::to_string(log.failed) + " calls failed");
  bed.Check(log.mismatches == 0, "syncwrite_busy: " + std::to_string(log.mismatches) +
                                     " blocks read back by the writer differ");
  bed.Check(log.bytes_read == payload.size(), "syncwrite_busy: short read-back");
  char converged = 0;
  OpLog replica;
  std::vector<Task<>> check;
  check.push_back([](lf::core::LibFs* fs, std::string path, const std::vector<uint8_t>* payload,
                     char* converged, OpLog* log) -> Task<> {
    co_await AwaitSize(fs, path, payload->size(), converged);
    if (*converged != 0) {
      co_await ReadBlocks(fs, path, payload->size(), kIo, nullptr, payload, log);
    }
  }(checker, path, &payload, &converged, &replica));
  bed.Run(std::move(check));
  bed.Check(converged != 0, "syncwrite_busy: replica node never saw the full file");
  bed.Check(replica.failed == 0 && replica.bytes_read == payload.size() &&
                replica.mismatches == 0,
            "syncwrite_busy: replica-node read-back differs (" +
                std::to_string(replica.mismatches) + " blocks)");

  out.attempted = log.attempted;
  out.failed = log.failed + log.mismatches;
  sim.bytes_written = log.bytes_written;
  sim.bytes_read = log.bytes_read;
  sim.ops_ok = log.attempted - log.failed;
  sim.ops_time = bed.measured_time();
  if (params.first_rep) {
    AddCompressLayer(payload, &out.layers, &out.errors);  // Its round trip must be exact.
  }
  if (params.traced) {
    WorkloadCounts counts;
    counts.user_bytes_written = log.bytes_written;
    counts.ops = log.attempted;
    AddLayers(bed, log, counts, &out);
  }
  return out;
}

// --- metadata_openloop --------------------------------------------------------------

// Open-loop options: bench_scaleout's namespace-heavy, 4-tenant Zipfian mix
// with private per-client directories, at one fixed rate below the 4-shard
// knee.
lf::load::Options OpenLoopOptions(const Params& params) {
  lf::load::Options opts;
  opts.sessions = params.small ? 20000 : 200000;
  opts.arrival_rate = kOpenLoopRate;
  opts.workers_per_client = kOpenLoopWorkers;
  opts.max_backlog = 256;
  opts.duration = params.small ? 50 * lf::sim::kMillisecond : kOpenLoopDuration;
  opts.seed = params.seed;
  opts.private_dirs = true;
  lf::load::OpMix mix;
  mix.create = 0.30;
  mix.stat = 0.35;
  mix.rename = 0.10;
  mix.mkdir = 0.03;
  mix.unlink = 0.17;
  mix.write = 0.05;
  mix.fsync_prob = 0.1;
  for (int t = 0; t < 4; ++t) {
    lf::load::TenantSpec spec;
    spec.name = "t";
    spec.name += std::to_string(t);
    spec.weight = t == 0 ? 2.0 : 1.0;  // One hot tenant, three warm.
    spec.files = params.small ? 64 : 256;
    spec.dirs = 32;
    spec.zipf_exponent = t == 0 ? 1.1 : 0.9;
    spec.write_bytes = kProbeIo;
    spec.mix = mix;
    opts.tenants.push_back(spec);
  }
  return opts;
}

// Closed-loop data-path probe beside the open-loop stream: 4 KB write +
// fsync pairs back to back until `until`, then closes `fd`.
Task<> Probe(lf::core::LibFs* fs, int fd, Time until, OpLog* log, SimOutcome* sim) {
  const std::vector<uint8_t> io(kProbeIo);
  for (uint64_t off = 0; fs->engine()->Now() < until; off += kProbeIo) {
    co_await WriteAndSync(fs, fd, off, kProbeIo, kProbeIo, &io, /*pairs=*/true, log, sim);
  }
  log->Count(nullptr, 0, (co_await fs->Close(fd)).ok());
}

// The sharded namespace plane under open-loop Poisson arrivals: 4 nodes, 4
// hash shards, 8 clients, leases refreshed every millisecond. Drives lease
// arbitration and mirroring, cross-shard 2PC, RPCs and small-entry
// replication. A probe client on node 0 supplies the data-path metrics.
RepResult MetadataOpenloop(const Params& params) {
  lf::core::DfsConfig config = BaseConfig();
  config.num_nodes = 4;
  config.num_shards = 4;
  config.shard_placement = "hash";
  config.log_size = 16ULL << 20;
  config.lease_duration = 1 * lf::sim::kMillisecond;
  config.max_clients = 9;  // Cluster-wide: 8 load clients plus the probe.
  RepResult out;
  Bed bed(config, &out);
  std::vector<lf::core::LibFs*> clients;
  for (int n = 0; n < config.num_nodes; ++n) {
    for (int c = 0; c < 2; ++c) {
      clients.push_back(bed.cluster().CreateClient(n));
    }
  }
  lf::core::LibFs* probe = bed.cluster().CreateClient(0);
  const lf::load::Options opts = OpenLoopOptions(params);
  lf::load::Generator gen(&bed.engine(), clients, opts);
  const std::string probe_path = "/probe.dat";
  lf::Status setup_st;
  lf::Result<int> probe_fd = lf::Status::Error(lf::ErrorCode::kBadFd, "probe");
  std::vector<Task<>> setup;
  setup.push_back([](lf::load::Generator* gen, lf::core::LibFs* probe, std::string path,
                     lf::Status* st, lf::Result<int>* fd) -> Task<> {
    *st = co_await gen->Setup();
    *fd = co_await probe->Open(path, lf::fslib::kOpenCreate | lf::fslib::kOpenWrite);
    // Let replica publication converge so every node resolves the population.
    co_await probe->engine()->SleepFor(300 * lf::sim::kMillisecond);
  }(&gen, probe, probe_path, &setup_st, &probe_fd));
  bed.Run(std::move(setup));
  if (!bed.Check(setup_st.ok() && probe_fd.ok(),
                 "metadata_openloop: set-up failed: " + setup_st.ToString())) {
    out.attempted = 1;
    out.failed = 1;
    return out;
  }
  OpLog log;
  lf::load::Report report;
  SimOutcome& sim = out.sim;

  bed.BeginMeasure(params.traced);
  std::vector<Task<>> run;
  run.push_back([](lf::load::Generator* gen, lf::load::Report* report) -> Task<> {
    *report = co_await gen->Run();
  }(&gen, &report));
  run.push_back(Probe(probe, *probe_fd, bed.engine().Now() + opts.duration, &log, &sim));
  bed.Run(std::move(run));
  sim.write_time = bed.engine().Now() - bed.measure_begin();
  std::vector<Task<>> reads;
  reads.push_back(
      ReadBlocks(probe, probe_path, log.bytes_written, kProbeIo, nullptr, nullptr, &log));
  const Time read_start = bed.engine().Now();
  bed.Run(std::move(reads));
  sim.read_time = bed.engine().Now() - read_start;
  bed.EndMeasure();

  // Checks: the open-loop ledger balances with no errors, and the probe's
  // calls all succeeded.
  bed.Check(report.offered == report.delivered + report.errors + report.shed,
            "metadata_openloop: offered != delivered + errors + shed");
  bed.Check(report.errors == 0,
            "metadata_openloop: " + std::to_string(report.errors) + " ops failed");
  bed.Check(log.failed == 0,
            "metadata_openloop: " + std::to_string(log.failed) + " probe calls failed");
  bed.Check(log.bytes_read == log.bytes_written, "metadata_openloop: short probe read-back");

  out.attempted = report.offered + log.attempted;
  out.failed = report.errors + report.shed + log.failed;
  sim.bytes_written =
      report.per_op[static_cast<int>(lf::load::OpKind::kWrite)] * kProbeIo + log.bytes_written;
  sim.bytes_read = log.bytes_read;
  sim.ops_ok = report.delivered;
  sim.ops_time = opts.duration;
  // Latency from arrival to completion, queueing included. Shed and failed
  // ops miss any limit: a percentile whose rank falls among them reports the
  // whole arrival window.
  const double missed = static_cast<double>(report.errors + report.shed);
  const double offered = static_cast<double>(std::max<uint64_t>(report.offered, 1));
  auto quantile_us = [&](double q, Time delivered_value) {
    return lf::sim::ToMicros(missed > (1.0 - q) * offered ? opts.duration : delivered_value);
  };
  sim.unit_p50_us = quantile_us(0.5, report.latency.p50);
  sim.unit_p999_us = quantile_us(0.999, report.latency.p999);
  if (params.traced) {
    WorkloadCounts counts;
    counts.user_bytes_written = sim.bytes_written;
    counts.ops = out.attempted;
    counts.load_shed = report.shed;
    counts.load_errors = report.errors;
    AddLayers(bed, log, counts, &out);
  }
  if (params.first_rep) {
    AddCompressLayer(MakePayload(kCompressProbeBytes, params.seed), &out.layers, &out.errors);
  }
  return out;
}

}  // namespace

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"seqwrite_idle", &SeqwriteIdle},
      {"syncwrite_busy", &SyncwriteBusy},
      {"metadata_openloop", &MetadataOpenloop},
  };
  return table;
}

}  // namespace perfbench
