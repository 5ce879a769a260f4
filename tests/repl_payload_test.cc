// The replication payload: one shared fslib::Payload carried with each
// kRpcReplChunk message as its RPC attachment. Covers the replica's decode
// drop (a bad CRC32C seal or a malformed compressed stream writes, forwards
// and acks nothing, and a clean redelivery still lands), two deliveries of
// the same chunk in flight at once each decoding their own bytes,
// replica-log identity with the primary across every replicating mode, both
// data modes and the transforming stage chain, and elided Assise replicas
// digesting and publishing the primary's tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "tests/co_test_util.h"

#include "src/compress/lzw.h"
#include "src/core/cluster.h"
#include "src/core/libfs.h"
#include "src/core/messages.h"
#include "src/core/nicfs.h"
#include "src/fslib/oplog.h"
#include "src/fslib/publicfs.h"
#include "src/pipeline/stage.h"
#include "src/pmem/region.h"

namespace linefs::core {
namespace {

constexpr int kClient = 3;  // No LibFs runs as this client: only the test writes its log.

DfsConfig BaseConfig(DfsMode mode, bool materialize) {
  DfsConfig config;
  config.mode = mode;
  config.num_nodes = 3;
  config.pm_size = 512ULL << 20;
  config.log_size = 32ULL << 20;
  config.inode_count = 65536;
  config.chunk_size = 1ULL << 20;
  config.materialize_data = materialize;
  return config;
}

class Harness {
 public:
  explicit Harness(const DfsConfig& config) {
    cluster_ = std::make_unique<Cluster>(&engine_, config);
    Status st = cluster_->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~Harness() {
    cluster_->Shutdown();
    engine_.Run();
  }
  template <typename Fn>
  void Run(Fn&& body) {
    bool done = false;
    engine_.Spawn([](Fn body, bool* done) -> sim::Task<> {
      co_await body();
      *done = true;
    }(std::forward<Fn>(body), &done));
    sim::Time deadline = engine_.Now() + 600 * sim::kSecond;
    while (!done && engine_.Now() < deadline && engine_.RunOne()) {
    }
    ASSERT_TRUE(done) << "client task did not finish";
  }
  void Drain(sim::Time t) { engine_.RunUntil(engine_.Now() + t); }

  Cluster& cluster() { return *cluster_; }
  sim::Engine& engine() { return engine_; }

 private:
  sim::Engine engine_;
  std::unique_ptr<Cluster> cluster_;
};

// A valid chunk image of kClient's log starting at logical position 0: a
// few data entries appended to a private log, then read back raw.
std::vector<uint8_t> ChunkImage() {
  pmem::Region region(4 << 20);
  fslib::LogArea log(&region, 0, 1 << 20, kClient);
  for (uint32_t i = 0; i < 6; ++i) {
    std::vector<uint8_t> data(3000 + 500 * i);
    for (size_t b = 0; b < data.size(); ++b) {
      data[b] = static_cast<uint8_t>((b / 32 + i) % 11);
    }
    fslib::LogEntryHeader h;
    h.type = fslib::LogOpType::kData;
    h.inum = 1000 + i;
    h.offset = 0;
    h.payload_len = static_cast<uint32_t>(data.size());
    EXPECT_TRUE(log.Append(h, data).ok());
  }
  std::vector<uint8_t> image;
  log.CopyRawOut(0, log.tail(), &image);
  return image;
}

fslib::PayloadPtr BytesPayload(std::vector<uint8_t> bytes) {
  return std::make_shared<const fslib::Payload>(fslib::Payload{std::move(bytes), {}});
}

// A terminal delivery of chunk 0 = image range [0, size) from node 0.
ReplChunkMsg DeliveryOf(uint64_t size, uint64_t wire_bytes) {
  ReplChunkMsg msg;
  msg.client = kClient;
  msg.chunk_no = 0;
  msg.from = 0;
  msg.to = size;
  msg.wire_bytes = wire_bytes;
  msg.origin_node = 0;
  msg.hop = 1;
  msg.fanout = 1;
  return msg;
}

sim::Task<Status> Deliver(Cluster* cluster, ReplChunkMsg msg, fslib::PayloadPtr payload) {
  co_return co_await cluster->rpc().Post(
      rdma::Initiator{}, rdma::MemAddr{0, rdma::Space::kNicMem}, NicFs::EndpointName(1),
      rdma::Channel::kHighTput, kRpcReplChunk, msg, 10 * sim::kMillisecond, {}, {},
      std::move(payload));
}

std::vector<uint8_t> LogBytes(Cluster& cluster, int node, uint64_t size) {
  std::vector<uint8_t> out;
  cluster.dfs_node(node).client_log(kClient).CopyRawOut(0, size, &out);
  return out;
}

// --- Decode failure is a drop ------------------------------------------------------

// Sends `bad` (which must fail to decode), checks nothing landed, then sends
// the clean delivery and checks it did.
void ExpectDropThenRedelivery(ReplChunkMsg bad_msg, fslib::PayloadPtr bad,
                              ReplChunkMsg good_msg, fslib::PayloadPtr good,
                              const std::vector<uint8_t>& image) {
  DfsConfig config = BaseConfig(DfsMode::kLineFS, /*materialize=*/true);
  config.replica_publish = false;
  Harness h(config);
  fslib::LogArea& replica_log = h.cluster().dfs_node(1).client_log(kClient);
  const std::vector<uint8_t> before = LogBytes(h.cluster(), 1, image.size());

  h.Run([&]() -> sim::Task<> {
    CO_ASSERT_OK(co_await Deliver(&h.cluster(), bad_msg, bad));
  });
  h.Drain(50 * sim::kMillisecond);
  EXPECT_EQ(replica_log.tail(), 0u);
  EXPECT_EQ(LogBytes(h.cluster(), 1, image.size()), before);
  EXPECT_EQ(h.cluster().nicfs(1)->stats().repl_decode_drops, 1u);
  // The dropped chunk gave its NIC memory back.
  EXPECT_EQ(h.cluster().hw_node(1).nic().mem_used(), 0u);

  h.Run([&]() -> sim::Task<> {
    CO_ASSERT_OK(co_await Deliver(&h.cluster(), good_msg, good));
  });
  h.Drain(50 * sim::kMillisecond);
  EXPECT_EQ(replica_log.tail(), image.size());
  EXPECT_EQ(LogBytes(h.cluster(), 1, image.size()), image);
  EXPECT_EQ(h.cluster().nicfs(1)->stats().repl_decode_drops, 1u);
}

TEST(ReplPayloadTest, ChecksumMismatchDropsChunkAndRedeliveryApplies) {
  const std::vector<uint8_t> image = ChunkImage();
  ReplChunkMsg msg = DeliveryOf(image.size(), image.size());
  msg.checksum_present = 1;
  msg.checksum = pipeline::WireChecksum(image);
  std::vector<uint8_t> corrupted = image;
  corrupted[corrupted.size() / 2] ^= 0x40;  // One flipped bit inside a payload.
  ExpectDropThenRedelivery(msg, BytesPayload(corrupted), msg, BytesPayload(image), image);
}

TEST(ReplPayloadTest, MalformedCompressedStreamDropsChunkAndRedeliveryApplies) {
  const std::vector<uint8_t> image = ChunkImage();
  std::vector<uint8_t> compressed = compress::LzwCompress(image);
  ReplChunkMsg msg = DeliveryOf(image.size(), compressed.size());
  msg.compressed = 1;
  std::vector<uint8_t> truncated(compressed.begin(),
                                 compressed.begin() + compressed.size() / 2);
  ASSERT_FALSE(compress::LzwDecompress(truncated).ok());
  ExpectDropThenRedelivery(msg, BytesPayload(truncated), msg, BytesPayload(compressed),
                           image);
}

// --- Two deliveries of one chunk in flight ---------------------------------------

TEST(ReplPayloadTest, ConcurrentDeliveriesOfOneChunkEachDecodeTheirOwnBytes) {
  // A chain forward (compressed) racing the origin's retransmit (raw) of the
  // same chunk to the same replica: both messages are in flight before
  // either handler runs, and each must carry and decode its own bytes.
  DfsConfig config = BaseConfig(DfsMode::kLineFS, /*materialize=*/true);
  config.replica_publish = false;
  Harness h(config);
  const std::vector<uint8_t> image = ChunkImage();
  std::vector<uint8_t> compressed = compress::LzwCompress(image);
  ASSERT_LT(compressed.size(), image.size());

  ReplChunkMsg forward = DeliveryOf(image.size(), compressed.size());
  forward.compressed = 1;
  forward.checksum_present = 1;
  forward.checksum = pipeline::WireChecksum(compressed);
  ReplChunkMsg retransmit = DeliveryOf(image.size(), image.size());
  retransmit.checksum_present = 1;
  retransmit.checksum = pipeline::WireChecksum(image);

  int sent = 0;
  auto send = [](Cluster* cluster, ReplChunkMsg msg, fslib::PayloadPtr payload,
                 int* sent) -> sim::Task<> {
    Status st = co_await Deliver(cluster, msg, std::move(payload));
    EXPECT_TRUE(st.ok()) << st.ToString();
    ++*sent;
  };
  h.engine().Spawn(send(&h.cluster(), forward, BytesPayload(compressed), &sent));
  h.engine().Spawn(send(&h.cluster(), retransmit, BytesPayload(image), &sent));
  h.Drain(50 * sim::kMillisecond);
  ASSERT_EQ(sent, 2);

  NicFs::StatsSnapshot stats = h.cluster().nicfs(1)->stats();
  EXPECT_EQ(stats.checksum_verified, 2u);
  EXPECT_EQ(stats.checksum_mismatches, 0u);
  EXPECT_EQ(stats.repl_decode_drops, 0u);
  EXPECT_EQ(h.cluster().dfs_node(1).client_log(kClient).tail(), image.size());
  EXPECT_EQ(LogBytes(h.cluster(), 1, image.size()), image);
}

// --- Replica logs equal the primary's ----------------------------------------------

struct IdentityCase {
  std::string name;
  DfsMode mode;
  std::string protocol;  // LineFS replication protocol.
  std::string stages;    // LineFS pipeline_stages ("" = default).
  bool materialize;
};

void PrintTo(const IdentityCase& c, std::ostream* os) {
  *os << c.name << (c.materialize ? " materialized" : " elided");
}

std::string CaseName(const ::testing::TestParamInfo<IdentityCase>& info) {
  return info.param.name + (info.param.materialize ? "_Materialized" : "_Elided");
}

constexpr uint64_t kIdentityDataBytes = 3ULL << 20;

// Compressible but non-trivial data across several chunks, plus namespace
// entries whose names must survive elided mode; then a drain.
void RunIdentityWorkload(Harness& h, LibFs* fs) {
  std::vector<uint8_t> data(kIdentityDataBytes);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i / 64) % 23 + (i % 7));
  }
  h.Run([&]() -> sim::Task<> {
    CO_ASSERT_OK(co_await fs->Mkdir("/dir"));
    Result<int> fd = co_await fs->Open("/dir/a.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->Pwrite(*fd, data, 0)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
    Result<int> fd2 = co_await fs->Open("/b.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd2);
    CO_ASSERT_OK((co_await fs->Pwrite(*fd2, std::span<const uint8_t>(data).first(70000), 0)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd2));
  });
  h.Drain(3 * sim::kSecond);
}

class ReplicaLogIdentityTest : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(ReplicaLogIdentityTest, ReplicaLogsEqualPrimaryAfterDrain) {
  const IdentityCase& c = GetParam();
  DfsConfig config = BaseConfig(c.mode, c.materialize);
  config.repl.protocol = c.protocol;
  if (!c.stages.empty()) {
    config.pipeline_stages = c.stages;
    config.compression = c.stages.find("compress") != std::string::npos;
  }
  ASSERT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  Harness h(config);
  LibFs* fs = h.cluster().CreateClient(0);
  RunIdentityWorkload(h, fs);

  const int client = fs->client_id();
  fslib::LogArea& primary = h.cluster().dfs_node(0).client_log(client);
  const uint64_t tail = primary.tail();
  ASSERT_GT(tail, kIdentityDataBytes);
  ASSERT_LT(tail, primary.capacity()) << "the comparison assumes the ring never wrapped";
  std::vector<uint8_t> primary_bytes;
  primary.CopyRawOut(0, tail, &primary_bytes);
  Result<std::vector<fslib::ParsedEntry>> primary_entries = primary.ParseRange(0, tail);
  ASSERT_TRUE(primary_entries.ok()) << primary_entries.status().ToString();

  for (int node : {1, 2}) {
    fslib::LogArea& replica = h.cluster().dfs_node(node).client_log(client);
    EXPECT_EQ(replica.tail(), tail) << "node " << node;
    if (c.materialize) {
      std::vector<uint8_t> replica_bytes;
      replica.CopyRawOut(0, tail, &replica_bytes);
      EXPECT_TRUE(replica_bytes == primary_bytes) << "node " << node;
      continue;
    }
    // Elided data: replicas mirror each entry's header, plus its payload
    // unless the entry is a ghost (a data entry whose bytes are elided).
    Result<std::vector<fslib::ParsedEntry>> entries = replica.ParseRange(0, tail);
    ASSERT_TRUE(entries.ok()) << "node " << node << ": " << entries.status().ToString();
    ASSERT_EQ(entries->size(), primary_entries->size()) << "node " << node;
    for (size_t i = 0; i < entries->size(); ++i) {
      const fslib::ParsedEntry& got = (*entries)[i];
      const fslib::ParsedEntry& want = (*primary_entries)[i];
      EXPECT_EQ(got.logical_pos, want.logical_pos) << "node " << node << " entry " << i;
      EXPECT_EQ(std::memcmp(&got.header, &want.header, sizeof(got.header)), 0)
          << "node " << node << " entry " << i;
      EXPECT_EQ(got.payload, want.payload) << "node " << node << " entry " << i;
    }
  }
  if (c.mode == DfsMode::kLineFS) {
    for (int node : {1, 2}) {
      NicFs::StatsSnapshot stats = h.cluster().nicfs(node)->stats();
      EXPECT_EQ(stats.checksum_mismatches, 0u) << "node " << node;
      EXPECT_EQ(stats.repl_decode_drops, 0u) << "node " << node;
    }
  }
}

std::vector<IdentityCase> IdentityCases() {
  const std::string all = "validate,compress,checksum";
  std::vector<IdentityCase> cases;
  for (bool materialize : {true, false}) {
    // Default chain: the untransformed chunk takes the penultimate hop's
    // direct-to-host write into the last replica's PM.
    cases.push_back({"LineFsChain", DfsMode::kLineFS, "chain", "", materialize});
    cases.push_back({"LineFsChainAllStages", DfsMode::kLineFS, "chain", all, materialize});
    cases.push_back({"LineFsQuorum", DfsMode::kLineFS, "quorum", "", materialize});
    cases.push_back({"LineFsQuorumAllStages", DfsMode::kLineFS, "quorum", all, materialize});
    cases.push_back({"Assise", DfsMode::kAssise, "chain", "", materialize});
    cases.push_back({"AssiseHyperloop", DfsMode::kAssiseHyperloop, "chain", "", materialize});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllModes, ReplicaLogIdentityTest, ::testing::ValuesIn(IdentityCases()),
                         CaseName);

// --- Elided Assise replicas publish what the primary published -------------------

// Names, types and sizes of every published entry under `ref_dir` and
// `other_dir` agree. Elided data has no bytes to compare.
void ExpectSameTree(fslib::PublicFs& ref, fslib::PublicFs& other, fslib::InodeNum ref_dir,
                    fslib::InodeNum other_dir, const std::string& path, int node) {
  auto ref_list = ref.dirs().List(ref_dir);
  auto other_list = other.dirs().List(other_dir);
  ASSERT_TRUE(ref_list.ok()) << path;
  ASSERT_TRUE(other_list.ok()) << "node " << node << " " << path;
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(ref_list->begin(), ref_list->end(), by_name);
  std::sort(other_list->begin(), other_list->end(), by_name);
  std::vector<std::string> ref_names, other_names;
  for (const auto& [name, inum] : *ref_list) ref_names.push_back(name);
  for (const auto& [name, inum] : *other_list) other_names.push_back(name);
  ASSERT_EQ(ref_names, other_names) << "node " << node << ": directory " << path << " differs";
  for (size_t i = 0; i < ref_list->size(); ++i) {
    const std::string child = path + "/" + (*ref_list)[i].first;
    Result<fslib::FileAttr> ref_attr = ref.GetAttr((*ref_list)[i].second);
    Result<fslib::FileAttr> other_attr = other.GetAttr((*other_list)[i].second);
    ASSERT_TRUE(ref_attr.ok()) << child;
    ASSERT_TRUE(other_attr.ok()) << "node " << node << " " << child;
    EXPECT_EQ(ref_attr->type, other_attr->type) << "node " << node << " " << child;
    EXPECT_EQ(ref_attr->size, other_attr->size) << "node " << node << " " << child;
    if (ref_attr->type == fslib::FileType::kDirectory) {
      ExpectSameTree(ref, other, (*ref_list)[i].second, (*other_list)[i].second, child, node);
    }
  }
}

class ElidedAssiseReplicaTest : public ::testing::TestWithParam<DfsMode> {
 protected:
  void Start(uint64_t log_size) {
    DfsConfig config = BaseConfig(GetParam(), /*materialize=*/false);
    config.log_size = log_size;
    harness_ = std::make_unique<Harness>(config);
    fs_ = harness_->cluster().CreateClient(0);
  }
  void ExpectReplicaTreesEqualPrimary() {
    Cluster& cluster = harness_->cluster();
    for (int node : {1, 2}) {
      ExpectSameTree(cluster.dfs_node(0).fs(), cluster.dfs_node(node).fs(), fslib::kRootInode,
                     fslib::kRootInode, "", node);
    }
  }
  void ExpectEveryRangeDigested() {
    obs::MetricsRegistry::Snapshot snap = harness_->cluster().metrics().TakeSnapshot();
    for (int node : {1, 2}) {
      const std::string scope = "sharedfs." + std::to_string(node) + ".";
      EXPECT_EQ(snap.counters[scope + "replica_digest_failures"], 0u) << "node " << node;
      EXPECT_GT(snap.counters[scope + "chunks_digested"], 0u) << "node " << node;
    }
  }
  std::unique_ptr<Harness> harness_;
  LibFs* fs_ = nullptr;
};

TEST_P(ElidedAssiseReplicaTest, ReplicaTreesEqualPrimaryAfterDrain) {
  Start(32ULL << 20);
  RunIdentityWorkload(*harness_, fs_);
  ASSERT_TRUE(harness_->cluster().dfs_node(0).fs().LookupChild(fslib::kRootInode, "b.dat").ok());
  ExpectReplicaTreesEqualPrimary();
}

TEST_P(ElidedAssiseReplicaTest, ReplicasDigestEveryRange) {
  Start(32ULL << 20);
  RunIdentityWorkload(*harness_, fs_);
  ExpectEveryRangeDigested();
}

// A 2 MB log wraps several times under 12 MB of writes: each replica's log
// must carry the wrap markers too, or digestion past the wrap point fails.
TEST_P(ElidedAssiseReplicaTest, ReplicasDigestAcrossLogWrap) {
  Start(2ULL << 20);
  std::vector<uint8_t> block(256 << 10, 0x5A);
  harness_->Run([&]() -> sim::Task<> {
    for (int f = 0; f < 4; ++f) {
      const std::string path = "/wrap" + std::to_string(f) + ".dat";
      Result<int> fd = co_await fs_->Open(path, fslib::kOpenCreate | fslib::kOpenWrite);
      CO_ASSERT_OK(fd);
      for (uint64_t i = 0; i < 12; ++i) {
        CO_ASSERT_OK((co_await fs_->Pwrite(*fd, block, i * block.size())));
      }
      CO_ASSERT_OK(co_await fs_->Fsync(*fd));
    }
  });
  harness_->Drain(3 * sim::kSecond);
  ASSERT_GT(harness_->cluster().dfs_node(0).client_log(fs_->client_id()).tail(), 3 * (2ULL << 20))
      << "the log never wrapped";
  ExpectEveryRangeDigested();
  ExpectReplicaTreesEqualPrimary();
}

INSTANTIATE_TEST_SUITE_P(Modes, ElidedAssiseReplicaTest,
                         ::testing::Values(DfsMode::kAssise, DfsMode::kAssiseHyperloop),
                         [](const ::testing::TestParamInfo<DfsMode>& info) {
                           std::string name = DfsModeName(info.param);
                           std::erase_if(name, [](char c) { return !std::isalnum(c); });
                           return name;
                         });

// --- A LineFS elided replica log parses across a wrap -------------------------------

// With elided data a LineFS replica's log holds only what the wire carried:
// each header, the names of namespace entries and the wrap markers. Scanned
// through RecoverScan from a head the test supplies, each replica's log must
// reach the primary's tail, and the window it yields, digested into a standby
// file system, must rebuild the tree the primary published. Without mirrored
// names RecoverScan stops at the first create (payload crc mismatch); without
// mirrored wrap markers it stops at the physical end of the ring. Replicas
// persist no head record of their own, so this is not yet recovery after a
// failover: the scan starts at the primary's head.
TEST(ElidedLineFsReplicaTest, ReplicaLogParsesAcrossWrapFromKnownHead) {
  DfsConfig config = BaseConfig(DfsMode::kLineFS, /*materialize=*/false);
  config.log_size = 2ULL << 20;
  Harness h(config);
  LibFs* fs = h.cluster().CreateClient(0);
  const int client = fs->client_id();
  fslib::LogArea& primary = h.cluster().dfs_node(0).client_log(client);
  std::vector<uint8_t> block(256 << 10, 0x5A);

  // Phase 1 moves the log ~1.5 MB into its 2 MB ring and leaves no trace in
  // the tree. Once drained it is published everywhere and reclaimed.
  h.Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/pad.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    for (uint64_t i = 0; i < 6; ++i) {
      CO_ASSERT_OK((co_await fs->Pwrite(*fd, block, i * block.size())));
    }
    CO_ASSERT_OK(co_await fs->Unlink("/pad.dat"));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));  // Syncs the whole log, unlink included.
    CO_ASSERT_OK(co_await fs->Close(*fd));
  });
  h.Drain(3 * sim::kSecond);
  const uint64_t window_from = primary.head();
  ASSERT_EQ(window_from, primary.tail()) << "phase 1 was not fully reclaimed";

  // Phase 2 builds the whole tree and crosses the ring's physical end.
  h.Run([&]() -> sim::Task<> {
    CO_ASSERT_OK(co_await fs->Mkdir("/d"));
    Result<int> a = co_await fs->Open("/d/a.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(a);
    CO_ASSERT_OK((co_await fs->Pwrite(*a, block, 0)));
    CO_ASSERT_OK((co_await fs->Pwrite(*a, std::span<const uint8_t>(block).first(5000),
                                      block.size())));
    CO_ASSERT_OK(co_await fs->Fsync(*a));
    Result<int> b = co_await fs->Open("/b.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(b);
    CO_ASSERT_OK((co_await fs->Pwrite(*b, block, 0)));
    CO_ASSERT_OK(co_await fs->Fsync(*b));
    CO_ASSERT_OK(co_await fs->Rename("/b.dat", "/d/c.dat"));
    Result<int> e = co_await fs->Open("/e.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(e);
    CO_ASSERT_OK((co_await fs->Pwrite(*e, std::span<const uint8_t>(block).first(70000), 0)));
    CO_ASSERT_OK(co_await fs->Fsync(*e));
  });
  h.Drain(3 * sim::kSecond);
  const uint64_t window_to = primary.tail();
  Result<std::vector<fslib::ParsedEntry>> with_wraps =
      primary.ParseRange(window_from, window_to, /*keep_wraps=*/true);
  ASSERT_TRUE(with_wraps.ok()) << with_wraps.status().ToString();
  ASSERT_TRUE(std::any_of(with_wraps->begin(), with_wraps->end(),
                          [](const fslib::ParsedEntry& entry) {
                            return entry.header.type == fslib::LogOpType::kWrap;
                          }))
      << "the window never crossed the ring's physical end";

  const fslib::Layout& layout = h.cluster().dfs_node(0).layout();
  for (int node : {1, 2}) {
    pmem::Region& pm = h.cluster().hw_node(node).pm();
    // Give the replica's log the head record the primary persisted.
    fslib::LogArea start(&pm, layout.LogOffset(client), layout.log_size,
                         static_cast<uint32_t>(client), /*materialize=*/false);
    start.SetTail(window_from);
    start.Reclaim(window_from);
    start.PersistMeta();
    fslib::LogArea recovered(&pm, layout.LogOffset(client), layout.log_size,
                             static_cast<uint32_t>(client), /*materialize=*/false);
    Result<uint64_t> scanned = recovered.RecoverScan();
    ASSERT_TRUE(scanned.ok()) << "node " << node << ": " << scanned.status().ToString();
    EXPECT_EQ(recovered.head(), window_from) << "node " << node;
    EXPECT_EQ(recovered.tail(), window_to) << "node " << node;
    Result<std::vector<fslib::ParsedEntry>> entries =
        recovered.ParseRange(recovered.head(), recovered.tail());
    ASSERT_TRUE(entries.ok()) << "node " << node << ": " << entries.status().ToString();

    pmem::Region standby_pm(config.pm_size);
    fslib::PublicFs standby(&standby_pm, layout);
    standby.Mkfs();
    Status st = standby.Publish(*entries, recovered, /*materialize=*/false);
    ASSERT_TRUE(st.ok()) << "node " << node << ": " << st.ToString();
    ExpectSameTree(h.cluster().dfs_node(0).fs(), standby, fslib::kRootInode, fslib::kRootInode,
                   "", node);
  }
}

}  // namespace
}  // namespace linefs::core
