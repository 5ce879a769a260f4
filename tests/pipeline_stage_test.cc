// The NICFS pipeline stages (src/pipeline): stage lookup and config-chain
// validation, per-chunk stage order through the generic workers, the checksum
// and compression wire round-trip, and a seeded fault run with the full chain
// armed.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tests/co_test_util.h"

#include "src/core/cluster.h"
#include "src/core/config.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/fault/schedule.h"
#include "src/pipeline/stage.h"
#include "src/sim/engine.h"
#include "src/workloads/minikv.h"

namespace linefs::pipeline {
namespace {

using core::DfsConfig;
using core::DfsMode;
using core::LibFs;

DfsConfig TestConfig() {
  DfsConfig config;
  config.mode = DfsMode::kLineFS;
  config.num_nodes = 3;
  config.pm_size = 512ULL << 20;
  config.log_size = 16ULL << 20;
  config.inode_count = 65536;
  config.chunk_size = 1ULL << 20;
  config.materialize_data = true;
  return config;
}

class PipelineHarness {
 public:
  explicit PipelineHarness(const DfsConfig& config) {
    cluster_ = std::make_unique<core::Cluster>(&engine_, config);
    Status st = cluster_->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~PipelineHarness() {
    cluster_->Shutdown();
    engine_.Run();
  }
  template <typename Fn>
  void RunClient(Fn&& body) {
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

  sim::Engine engine_;
  std::unique_ptr<core::Cluster> cluster_;
};

// --- Stage lookup ------------------------------------------------------------------

TEST(StageLookupTest, StagesDeclareTheirInfo) {
  for (const char* name : {"validate", "compress", "checksum"}) {
    std::unique_ptr<Stage> stage = MakeStage(name);
    ASSERT_NE(stage, nullptr) << name;
    EXPECT_EQ(stage->info().name, name);
  }
  // Declared flags drive validation and the generic workers.
  EXPECT_FALSE(MakeStage("validate")->info().optional);
  EXPECT_TRUE(MakeStage("validate")->info().shared_fanout);
  EXPECT_TRUE(MakeStage("compress")->info().optional);
  EXPECT_FALSE(MakeStage("compress")->info().shared_fanout);
  EXPECT_TRUE(MakeStage("checksum")->info().optional);
  EXPECT_FALSE(MakeStage("checksum")->info().shared_fanout);
}

TEST(StageLookupTest, UnknownStagesAreRejectedEverywhere) {
  for (const char* name : {"no_such_stage", "xor_encrypt"}) {
    EXPECT_EQ(MakeStage(name), nullptr) << name;
    DfsConfig config = TestConfig();
    config.pipeline_stages = std::string("validate,") + name;
    EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid) << name;
  }
}

TEST(StageLookupTest, ParseStageListTrimsAndKeepsEmptyItems) {
  std::vector<std::string> names = ParseStageList("validate, compress ,checksum");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "validate");
  EXPECT_EQ(names[1], "compress");
  EXPECT_EQ(names[2], "checksum");
  // Empty items survive parsing so Validate() can name the malformation.
  EXPECT_EQ(ParseStageList("validate,,compress").size(), 3u);
}

// --- Config-chain validation -------------------------------------------------------

TEST(StageChainValidation, AcceptsWellFormedChains) {
  DfsConfig config = TestConfig();
  EXPECT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  config.pipeline_stages = "validate,compress,checksum";
  config.compression = true;
  EXPECT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  config = TestConfig();
  config.pipeline_stages = "validate,checksum";
  EXPECT_TRUE(config.Validate().ok()) << config.Validate().ToString();
}

TEST(StageChainValidation, RejectsMalformedChains) {
  auto invalid = [](const std::string& stages, bool compression = false) {
    DfsConfig config = TestConfig();
    config.pipeline_stages = stages;
    config.compression = compression;
    return config.Validate().code() == ErrorCode::kInvalid;
  };
  EXPECT_TRUE(invalid(""));                            // empty chain
  EXPECT_TRUE(invalid("validate,,compress"));          // empty entry
  EXPECT_TRUE(invalid("validate,frobnicate"));         // unknown stage
  EXPECT_TRUE(invalid("compress,validate"));           // validate not first
  EXPECT_TRUE(invalid("validate,compress,compress"));  // duplicate
  EXPECT_TRUE(invalid("validate,checksum,compress"));  // checksum not last
  EXPECT_TRUE(invalid("validate", /*compression=*/true));  // knob without stage
}

// --- Per-chunk stage order ---------------------------------------------------------

// Every chunk's spans on the primary show the chain order: validate nests under
// fetch, each later stage nests under validate, and each stage starts only
// after the previous one ended.
TEST(StageChainTest, ChunksTraverseConfiguredStagesInOrder) {
  DfsConfig config = TestConfig();
  config.pipeline_stages = "validate,compress,checksum";
  config.compression = true;
  ASSERT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  PipelineHarness harness(config);
  LibFs* fs = harness.cluster_->CreateClient(0);
  // Four 1 MB chunks stay under the bypass threshold, so no chunk skips an
  // optional stage.
  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/order.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->PwriteGen(*fd, 4ULL << 20, 0, 1)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  harness.Drain(2 * sim::kSecond);

  const std::vector<std::string> chain = {"fetch", "validate", "compress", "checksum"};
  std::map<uint64_t, std::map<std::string, obs::TraceEvent>> per_chunk;
  harness.cluster_->trace().ForEach([&](const obs::TraceEvent& e) {
    if (e.component == "nicfs.0" && e.client == fs->client_id() &&
        std::find(chain.begin(), chain.end(), e.stage) != chain.end()) {
      per_chunk[e.chunk_no][e.stage] = e;
    }
  });
  ASSERT_GE(per_chunk.size(), 4u);
  for (const auto& [chunk_no, spans] : per_chunk) {
    for (const std::string& stage : chain) {
      ASSERT_TRUE(spans.count(stage)) << "chunk " << chunk_no << " has no " << stage;
    }
    const obs::TraceEvent& validate = spans.at("validate");
    EXPECT_EQ(validate.parent_span, spans.at("fetch").span_id) << "chunk " << chunk_no;
    for (size_t i = 2; i < chain.size(); ++i) {
      const obs::TraceEvent& prev = spans.at(chain[i - 1]);
      const obs::TraceEvent& cur = spans.at(chain[i]);
      EXPECT_EQ(cur.parent_span, validate.span_id) << chain[i] << " chunk " << chunk_no;
      EXPECT_LE(prev.end, cur.begin) << chain[i] << " chunk " << chunk_no;
    }
  }
}

// --- Checksum and compression wire round-trip ---------------------------------------

TEST(StageWireTest, ChecksumAndCompressionRoundTripThroughReplication) {
  DfsConfig config = TestConfig();
  config.pipeline_stages = "validate,compress,checksum";
  config.compression = true;
  ASSERT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  PipelineHarness harness(config);
  LibFs* fs = harness.cluster_->CreateClient(0);

  // Compressible but non-trivial payload.
  std::vector<uint8_t> data(4ULL << 20);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i / 64) % 17);
  }
  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/rt.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->Pwrite(*fd, data, 0)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  harness.Drain(5 * sim::kSecond);

  // Both replicas verified every seal and undid the compression.
  for (int node : {1, 2}) {
    core::NicFs::StatsSnapshot stats = harness.cluster_->nicfs(node)->stats();
    EXPECT_GT(stats.checksum_verified, 0u) << "node " << node;
    EXPECT_EQ(stats.checksum_mismatches, 0u) << "node " << node;
    fslib::PublicFs& replica = harness.cluster_->dfs_node(node).fs();
    Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "rt.dat");
    ASSERT_TRUE(inum.ok()) << "node " << node;
    std::vector<uint8_t> out(data.size());
    ASSERT_TRUE(replica.ReadData(*inum, 0, out).ok()) << "node " << node;
    EXPECT_EQ(out, data) << "node " << node;
  }
  // The primary ran every configured stage.
  core::NicFs::StatsSnapshot primary = harness.cluster_->nicfs(0)->stats();
  for (const char* stage : {"validate", "compress", "checksum"}) {
    ASSERT_TRUE(primary.stages.count(stage)) << stage;
    EXPECT_GT(primary.stages.at(stage).latency.count, 0u) << stage;
  }
}

TEST(StageWireTest, ChecksumIsStable) {
  std::vector<uint8_t> data(4096);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  std::vector<uint8_t> original = data;
  uint64_t seal = WireChecksum(data);
  EXPECT_EQ(WireChecksum(original), seal);
  data[100] ^= 1;
  EXPECT_NE(WireChecksum(data), seal);
  data[100] ^= 1;
  EXPECT_EQ(WireChecksum(data), seal);
}

// --- Seeded faults with the full chain armed ----------------------------------------

TEST(StageTortureTest, FullChainSurvivesSeededFaults) {
  DfsConfig config = TestConfig();
  config.pipeline_stages = "validate,compress,checksum";
  config.compression = true;
  config.heartbeat_interval = 200 * sim::kMillisecond;
  config.heartbeat_timeout = 300 * sim::kMillisecond;
  PipelineHarness harness(config);
  core::Cluster& cluster = *harness.cluster_;

  fault::ScheduleOptions sched;
  sched.num_nodes = 3;
  sched.first_fault = 500 * sim::kMillisecond;
  sched.last_heal = 3 * sim::kSecond;
  sched.max_extra_faults = 1;
  fault::FaultPlan plan = fault::RandomPlan(/*seed=*/7, sched);
  ASSERT_TRUE(plan.Validate(3).ok()) << plan.ToSpec();
  SCOPED_TRACE("fault plan:\n" + plan.ToSpec());
  fault::Injector injector(&cluster, plan);
  ASSERT_TRUE(injector.Arm().ok());

  LibFs* fs = cluster.CreateClient(0);
  uint64_t ops = 0;
  harness.RunClient([&]() -> sim::Task<> {
    workloads::MiniKv kv(fs, workloads::MiniKv::Options{});
    Status st = co_await kv.Open();
    CO_ASSERT_OK(st);
    std::string value(4096, 'p');
    for (int i = 0; i < 160; ++i) {
      char key[24];
      std::snprintf(key, sizeof(key), "%016d", i);
      if ((co_await kv.Put(key, value)).ok()) {
        ++ops;
      }
      if (i % 8 == 0) {
        co_await harness.engine_.SleepFor(100 * sim::kMillisecond);
      }
    }
    co_await kv.Close();
  });
  EXPECT_GT(ops, 0u) << "no progress under faults";
  harness.Drain(2 * sim::kSecond);
  EXPECT_TRUE(injector.done());

  // Barrier write through the healed chain, then verify the seals held: the
  // replicas decoded every surviving chunk without a checksum mismatch.
  harness.RunClient([&]() -> sim::Task<> {
    std::vector<uint8_t> marker(256 << 10, 0xCD);
    Result<int> fd = co_await fs->Open("/chain_barrier.dat",
                                       fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->Pwrite(*fd, marker, 0)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  harness.Drain(2 * sim::kSecond);
  uint64_t verified = 0;
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    if (core::NicFs* nicfs = cluster.nicfs(node)) {
      core::NicFs::StatsSnapshot stats = nicfs->stats();
      verified += stats.checksum_verified;
      EXPECT_EQ(stats.checksum_mismatches, 0u) << "node " << node;
    }
  }
  EXPECT_GT(verified, 0u);
}

}  // namespace
}  // namespace linefs::pipeline
