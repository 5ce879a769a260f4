// Unit tests for the public-area file system: extents, directories,
// digestion (plan/copy/commit), coalescing, validation, and mounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/fslib/extent.h"
#include "src/fslib/index.h"
#include "src/fslib/layout.h"
#include "src/fslib/oplog.h"
#include "src/fslib/publicfs.h"
#include "src/fslib/validate.h"
#include "src/pmem/region.h"
#include "src/sim/random.h"

namespace linefs::fslib {
namespace {

LayoutConfig SmallConfig() {
  LayoutConfig config;
  config.inode_count = 4096;
  config.max_clients = 2;
  config.log_size = 4 << 20;
  return config;
}

class PublicFsTest : public ::testing::Test {
 protected:
  PublicFsTest()
      : region_(64 << 20), layout_(Layout::Compute(64 << 20, SmallConfig())),
        fs_(&region_, layout_), log_(&region_, layout_.LogOffset(0), layout_.log_size, 0) {
    fs_.Mkfs();
  }

  // Appends an entry and returns the parsed form (as the pipeline would see).
  ParsedEntry Append(LogEntryHeader h, const std::vector<uint8_t>& payload) {
    Result<uint64_t> pos = log_.Append(h, payload);
    EXPECT_TRUE(pos.ok());
    Result<std::vector<ParsedEntry>> entries = log_.ParseRange(*pos, log_.tail());
    EXPECT_TRUE(entries.ok());
    return entries->back();
  }

  ParsedEntry AppendCreate(InodeNum parent, const std::string& name, InodeNum inum,
                           FileType type = FileType::kRegular) {
    LogEntryHeader h;
    h.type = type == FileType::kDirectory ? LogOpType::kMkdir : LogOpType::kCreate;
    h.inum = inum;
    h.parent = parent;
    h.ftype = type;
    h.payload_len = static_cast<uint32_t>(name.size());
    return Append(h, std::vector<uint8_t>(name.begin(), name.end()));
  }

  ParsedEntry AppendData(InodeNum inum, uint64_t offset, const std::vector<uint8_t>& data) {
    LogEntryHeader h;
    h.type = LogOpType::kData;
    h.inum = inum;
    h.offset = offset;
    h.payload_len = static_cast<uint32_t>(data.size());
    return Append(h, data);
  }

  ParsedEntry AppendUnlink(InodeNum parent, const std::string& name, InodeNum inum) {
    LogEntryHeader h;
    h.type = LogOpType::kUnlink;
    h.inum = inum;
    h.parent = parent;
    h.payload_len = static_cast<uint32_t>(name.size());
    return Append(h, std::vector<uint8_t>(name.begin(), name.end()));
  }

  std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 7);
    }
    return v;
  }

  pmem::Region region_;
  Layout layout_;
  PublicFs fs_;
  LogArea log_;
};

TEST_F(PublicFsTest, MkfsCreatesRoot) {
  Result<FileAttr> attr = fs_.GetAttr(kRootInode);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, FileType::kDirectory);
}

TEST_F(PublicFsTest, PublishCreateAndData) {
  std::vector<ParsedEntry> entries;
  entries.push_back(AppendCreate(kRootInode, "file.txt", 100));
  std::vector<uint8_t> data = Pattern(10000, 1);
  entries.push_back(AppendData(100, 0, data));
  ASSERT_TRUE(fs_.Publish(entries, log_, true).ok());

  Result<InodeNum> found = fs_.LookupChild(kRootInode, "file.txt");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 100u);
  Result<FileAttr> attr = fs_.GetAttr(100);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 10000u);

  std::vector<uint8_t> out(10000);
  Result<uint64_t> n = fs_.ReadData(100, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10000u);
  EXPECT_EQ(out, data);
}

TEST_F(PublicFsTest, UnalignedOverwritePreservesSurroundingBytes) {
  std::vector<ParsedEntry> batch1;
  batch1.push_back(AppendCreate(kRootInode, "f", 100));
  std::vector<uint8_t> base = Pattern(3 * kBlockSize, 9);
  batch1.push_back(AppendData(100, 0, base));
  ASSERT_TRUE(fs_.Publish(batch1, log_, true).ok());

  // Overwrite bytes [5000, 5000+3000) — straddles block 1, unaligned both ends.
  std::vector<uint8_t> patch = Pattern(3000, 77);
  std::vector<ParsedEntry> batch2;
  batch2.push_back(AppendData(100, 5000, patch));
  ASSERT_TRUE(fs_.Publish(batch2, log_, true).ok());

  std::vector<uint8_t> expected = base;
  std::memcpy(expected.data() + 5000, patch.data(), patch.size());
  std::vector<uint8_t> out(expected.size());
  Result<uint64_t> n = fs_.ReadData(100, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, expected.size());
  EXPECT_EQ(out, expected);
}

TEST_F(PublicFsTest, SparseFileReadsZeroInHoles) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "sparse", 101));
  std::vector<uint8_t> data = Pattern(100, 5);
  batch.push_back(AppendData(101, 1 << 20, data));  // Write at 1MB.
  ASSERT_TRUE(fs_.Publish(batch, log_, true).ok());

  std::vector<uint8_t> out(200);
  Result<uint64_t> n = fs_.ReadData(101, 4096, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 200u);
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(PublicFsTest, UnlinkFreesBlocks) {
  uint64_t free_before = fs_.allocator().free_blocks();
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "doomed", 102));
  batch.push_back(AppendData(102, 0, Pattern(64 << 10, 3)));
  ASSERT_TRUE(fs_.Publish(batch, log_, true).ok());
  EXPECT_LT(fs_.allocator().free_blocks(), free_before);

  std::vector<ParsedEntry> batch2;
  batch2.push_back(AppendUnlink(kRootInode, "doomed", 102));
  ASSERT_TRUE(fs_.Publish(batch2, log_, true).ok());
  // Root's dirent block and its extent-chain block stay allocated; the file's
  // data blocks and extent chain return.
  EXPECT_EQ(fs_.allocator().free_blocks(), free_before - 2);
  EXPECT_FALSE(fs_.GetAttr(102).ok());
  EXPECT_FALSE(fs_.LookupChild(kRootInode, "doomed").ok());
}

TEST_F(PublicFsTest, RenameMovesAndReplaces) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "dir", 110, FileType::kDirectory));
  batch.push_back(AppendCreate(kRootInode, "a", 111));
  batch.push_back(AppendData(111, 0, Pattern(100, 1)));
  batch.push_back(AppendCreate(110, "b", 112));
  ASSERT_TRUE(fs_.Publish(batch, log_, true).ok());

  // rename("/a", "/dir/b") — replaces existing b.
  LogEntryHeader h;
  h.type = LogOpType::kRename;
  h.inum = 111;
  h.parent = kRootInode;
  h.offset = 110;  // dst parent
  std::string payload("a");
  payload.push_back('\0');
  payload += "b";
  h.payload_len = static_cast<uint32_t>(payload.size());
  std::vector<ParsedEntry> batch2;
  batch2.push_back(Append(h, std::vector<uint8_t>(payload.begin(), payload.end())));
  ASSERT_TRUE(fs_.Publish(batch2, log_, true).ok());

  EXPECT_FALSE(fs_.LookupChild(kRootInode, "a").ok());
  Result<InodeNum> moved = fs_.LookupChild(110, "b");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 111u);
  EXPECT_FALSE(fs_.GetAttr(112).ok());  // Replaced target is gone.
}

TEST_F(PublicFsTest, TruncateShrinksAndFrees) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "t", 120));
  batch.push_back(AppendData(120, 0, Pattern(8 * kBlockSize, 2)));
  ASSERT_TRUE(fs_.Publish(batch, log_, true).ok());
  uint64_t free_mid = fs_.allocator().free_blocks();

  LogEntryHeader h;
  h.type = LogOpType::kTruncate;
  h.inum = 120;
  h.offset = 2 * kBlockSize + 100;
  std::vector<ParsedEntry> batch2;
  batch2.push_back(Append(h, {}));
  ASSERT_TRUE(fs_.Publish(batch2, log_, true).ok());

  Result<FileAttr> attr = fs_.GetAttr(120);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 2 * kBlockSize + 100);
  EXPECT_GT(fs_.allocator().free_blocks(), free_mid);
}

TEST_F(PublicFsTest, TruncateThenPartialWriteInOneBatchReadsZeros) {
  // The truncate zeroes its partial last block at commit, after every copy of
  // the batch; a later partial write to that block must still read zeros
  // between the new end and its own bytes, as when published one by one.
  std::vector<ParsedEntry> setup;
  setup.push_back(AppendCreate(kRootInode, "tz", 125));
  std::vector<uint8_t> base = Pattern(2 * kBlockSize, 3);
  setup.push_back(AppendData(125, 0, base));
  ASSERT_TRUE(fs_.Publish(setup, log_, true).ok());

  LogEntryHeader h;
  h.type = LogOpType::kTruncate;
  h.inum = 125;
  h.offset = 100;
  std::vector<ParsedEntry> batch;
  batch.push_back(Append(h, {}));
  std::vector<uint8_t> patch = Pattern(10, 50);
  batch.push_back(AppendData(125, 200, patch));
  ASSERT_TRUE(fs_.Publish(batch, log_, true).ok());

  std::vector<uint8_t> expected(210, 0);
  std::memcpy(expected.data(), base.data(), 100);
  std::memcpy(expected.data() + 200, patch.data(), patch.size());
  Result<FileAttr> attr = fs_.GetAttr(125);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 210u);
  std::vector<uint8_t> out(210);
  ASSERT_TRUE(fs_.ReadData(125, 0, out).ok());
  EXPECT_EQ(out, expected);
}

TEST_F(PublicFsTest, MountRebuildsAllocator) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "m", 130));
  batch.push_back(AppendData(130, 0, Pattern(128 << 10, 4)));
  ASSERT_TRUE(fs_.Publish(batch, log_, true).ok());
  uint64_t free_before = fs_.allocator().free_blocks();
  std::vector<uint8_t> content(128 << 10);
  ASSERT_TRUE(fs_.ReadData(130, 0, content).ok());

  // Remount a fresh PublicFs over the same region.
  PublicFs remounted(&region_, layout_);
  ASSERT_TRUE(remounted.Mount().ok());
  EXPECT_EQ(remounted.allocator().free_blocks(), free_before);
  std::vector<uint8_t> out(128 << 10);
  Result<uint64_t> n = remounted.ReadData(130, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, content);
}

TEST_F(PublicFsTest, PlanSeparatesCopiesFromMetadata) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "p", 140));
  std::vector<uint8_t> data = Pattern(16384, 6);
  batch.push_back(AppendData(140, 0, data));
  Result<PublishPlan> plan = fs_.PlanPublish(batch, log_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->copy_bytes, 16384u);
  ASSERT_EQ(plan->copies.size(), 1u);
  EXPECT_EQ(plan->copies[0].kind, CopyOp::Kind::kPayload);

  // Before commit, the file is invisible.
  EXPECT_FALSE(fs_.LookupChild(kRootInode, "p").ok());
  fs_.ExecuteCopies(*plan, true);
  ASSERT_TRUE(fs_.CommitPublish(*plan, batch).ok());
  Result<FileAttr> attr = fs_.GetAttr(140);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 16384u);
}

TEST_F(PublicFsTest, CoalesceDropsCreateUnlinkLifetime) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "tmp", 150));
  batch.push_back(AppendData(150, 0, Pattern(4096, 8)));
  batch.push_back(AppendUnlink(kRootInode, "tmp", 150));
  batch.push_back(AppendCreate(kRootInode, "kept", 151));
  uint64_t saved = CoalesceEntries(&batch);
  // 4096 data bytes + the 3-byte names of the dropped create and unlink.
  EXPECT_EQ(saved, 4096u + 3 + 3);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].header.inum, 151u);
  ASSERT_TRUE(fs_.Publish(batch, log_, true).ok());
  EXPECT_TRUE(fs_.LookupChild(kRootInode, "kept").ok());
}

TEST_F(PublicFsTest, CoalesceDropsSupersededWrites) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "w", 160));
  std::vector<uint8_t> old_data = Pattern(4096, 1);
  std::vector<uint8_t> new_data = Pattern(4096, 2);
  batch.push_back(AppendData(160, 0, old_data));
  batch.push_back(AppendData(160, 0, new_data));
  uint64_t saved = CoalesceEntries(&batch);
  EXPECT_EQ(saved, 4096u);
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(fs_.Publish(batch, log_, true).ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(fs_.ReadData(160, 0, out).ok());
  EXPECT_EQ(out, new_data);
}

TEST_F(PublicFsTest, CoalescePreservesFinalStateOnRandomOps) {
  // Property check: publishing with and without coalescing produces identical
  // final file contents.
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "prop", 170));
  std::vector<uint8_t> model(32 << 10, 0);
  uint64_t seed = 12345;
  for (int i = 0; i < 40; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t off = (seed >> 13) % (24 << 10);
    uint32_t len = 512 + (seed >> 33) % 4096;
    std::vector<uint8_t> data(len, static_cast<uint8_t>(i + 1));
    batch.push_back(AppendData(170, off, data));
    std::memcpy(model.data() + off, data.data(), len);
  }
  CoalesceEntries(&batch);
  ASSERT_TRUE(fs_.Publish(batch, log_, true).ok());
  Result<FileAttr> attr = fs_.GetAttr(170);
  ASSERT_TRUE(attr.ok());
  std::vector<uint8_t> out(attr->size);
  ASSERT_TRUE(fs_.ReadData(170, 0, out).ok());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], model[i]) << "mismatch at " << i;
  }
}

TEST_F(PublicFsTest, CoalesceKeepsWritesWhoseKeysCollide) {
  // (off 0, len 30) and (off 1, len 1) of one inode hash alike under
  // inum*1000003 ^ off*31 ^ len; neither supersedes the other.
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "k", 165));
  std::vector<uint8_t> first = Pattern(30, 4);
  std::vector<uint8_t> second = {0xAB};
  batch.push_back(AppendData(165, 0, first));
  batch.push_back(AppendData(165, 1, second));
  EXPECT_EQ(CoalesceEntries(&batch), 0u);
  ASSERT_EQ(batch.size(), 3u);
  ASSERT_TRUE(fs_.Publish(batch, log_, true).ok());
  Result<FileAttr> attr = fs_.GetAttr(165);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 30u);
  std::vector<uint8_t> expected = first;
  expected[1] = second[0];
  std::vector<uint8_t> out(30);
  ASSERT_TRUE(fs_.ReadData(165, 0, out).ok());
  EXPECT_EQ(out, expected);
}

// One node's public area plus a client log, for comparing two publication
// schedules of the same entries.
struct PublishNode {
  PublishNode()
      : region(64 << 20), layout(Layout::Compute(64 << 20, SmallConfig())), fs(&region, layout),
        log(&region, layout.LogOffset(0), layout.log_size, 0) {
    fs.Mkfs();
  }
  ParsedEntry Append(const LogEntryHeader& h, const std::vector<uint8_t>& payload) {
    Result<uint64_t> pos = log.Append(h, payload);
    EXPECT_TRUE(pos.ok());
    Result<std::vector<ParsedEntry>> entries = log.ParseRange(*pos, log.tail());
    EXPECT_TRUE(entries.ok());
    return entries->back();
  }

  pmem::Region region;
  Layout layout;
  PublicFs fs;
  LogArea log;
};

// Asserts that `a` and `b` publish `inum` identically: existence, size,
// bytes, and which logical blocks are mapped to which block contents.
void ExpectSameFile(PublishNode& a, PublishNode& b, InodeNum inum) {
  Result<FileAttr> attr_a = a.fs.GetAttr(inum);
  Result<FileAttr> attr_b = b.fs.GetAttr(inum);
  ASSERT_EQ(attr_a.ok(), attr_b.ok()) << "inode " << inum;
  if (!attr_a.ok()) {
    return;
  }
  ASSERT_EQ(attr_a->size, attr_b->size) << "inode " << inum;
  std::vector<uint8_t> bytes_a(attr_a->size);
  std::vector<uint8_t> bytes_b(attr_b->size);
  ASSERT_TRUE(a.fs.ReadData(inum, 0, bytes_a).ok());
  ASSERT_TRUE(b.fs.ReadData(inum, 0, bytes_b).ok());
  ASSERT_EQ(bytes_a, bytes_b) << "inode " << inum;
  Result<Inode> inode_a = a.fs.inodes().Get(inum);
  Result<Inode> inode_b = b.fs.inodes().Get(inum);
  ASSERT_TRUE(inode_a.ok() && inode_b.ok());
  std::vector<Extent> map_a = a.fs.extents().Load(*inode_a);
  std::vector<Extent> map_b = b.fs.extents().Load(*inode_b);
  uint64_t blocks = BlocksFor(attr_a->size) + 2;
  for (uint64_t lb = 0; lb < blocks; ++lb) {
    std::optional<Extent> ea = ExtentList::LookupIn(map_a, lb);
    std::optional<Extent> eb = ExtentList::LookupIn(map_b, lb);
    ASSERT_EQ(ea.has_value(), eb.has_value()) << "inode " << inum << " lblock " << lb;
    if (ea.has_value()) {
      std::vector<uint8_t> block_a(kBlockSize);
      std::vector<uint8_t> block_b(kBlockSize);
      a.region.Read(ea->pblock << kBlockShift, block_a.data(), kBlockSize);
      b.region.Read(eb->pblock << kBlockShift, block_b.data(), kBlockSize);
      ASSERT_EQ(block_a, block_b) << "inode " << inum << " lblock " << lb;
    }
  }
}

TEST_F(PublicFsTest, RunCommitMatchesPerEntryCommit) {
  // Property: committing a whole batch at once (runs of data entries for one
  // inode share one extent rewrite) equals publishing it one entry at a time.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    auto batched = std::make_unique<PublishNode>();
    auto single = std::make_unique<PublishNode>();
    std::vector<InodeNum> live;
    std::vector<InodeNum> all;
    std::vector<uint64_t> sizes(1024, 0);
    InodeNum next_inum = 300;
    for (int b = 0; b < 3; ++b) {
      std::vector<ParsedEntry> batch_a;
      std::vector<ParsedEntry> batch_b;
      auto add = [&](const LogEntryHeader& h, const std::vector<uint8_t>& payload) {
        batch_a.push_back(batched->Append(h, payload));
        batch_b.push_back(single->Append(h, payload));
      };
      // Each batch works on 2-3 live inodes, creating them as needed.
      size_t want = 2 + rng.Uniform(2);
      while (live.size() < want) {
        LogEntryHeader h;
        h.type = LogOpType::kCreate;
        h.inum = next_inum++;
        h.parent = kRootInode;
        h.ftype = FileType::kRegular;
        std::string name = "r" + std::to_string(h.inum);
        h.payload_len = static_cast<uint32_t>(name.size());
        add(h, std::vector<uint8_t>(name.begin(), name.end()));
        live.push_back(h.inum);
        all.push_back(h.inum);
      }
      InodeNum current = live[rng.Uniform(live.size())];
      for (int i = 0; i < 48; ++i) {
        if (rng.Bernoulli(0.3)) {
          current = live[rng.Uniform(live.size())];
        }
        uint64_t kind = rng.Uniform(100);
        LogEntryHeader h;
        h.inum = current;
        if (kind < 80) {
          // Data: sequential appends (runs that merge), unaligned overwrites
          // and sparse writes.
          uint64_t size = sizes[current];
          uint64_t off;
          uint64_t shape = rng.Uniform(3);
          if (shape == 0) {
            off = size;
          } else if (shape == 1) {
            off = rng.Uniform(size + 1);
          } else {
            off = size + rng.Uniform(3 * kBlockSize);
          }
          uint64_t len = rng.Bernoulli(0.5) ? kBlockSize : 1 + rng.Uniform(3 * kBlockSize);
          std::vector<uint8_t> data(len);
          for (uint8_t& byte : data) {
            byte = static_cast<uint8_t>(rng.Next());
          }
          h.type = LogOpType::kData;
          h.offset = off;
          h.payload_len = static_cast<uint32_t>(len);
          add(h, data);
          sizes[current] = std::max(size, off + len);
        } else if (kind < 90) {
          h.type = LogOpType::kTruncate;
          h.offset = rng.Uniform(sizes[current] + 1);
          add(h, {});
          sizes[current] = h.offset;
        } else if (kind < 95 || live.size() < 2) {
          h.type = LogOpType::kCreate;
          h.inum = next_inum++;
          h.parent = kRootInode;
          h.ftype = FileType::kRegular;
          std::string name = "r" + std::to_string(h.inum);
          h.payload_len = static_cast<uint32_t>(name.size());
          add(h, std::vector<uint8_t>(name.begin(), name.end()));
          live.push_back(h.inum);
          all.push_back(h.inum);
        } else {
          h.type = LogOpType::kUnlink;
          h.parent = kRootInode;
          std::string name = "r" + std::to_string(h.inum);
          h.payload_len = static_cast<uint32_t>(name.size());
          add(h, std::vector<uint8_t>(name.begin(), name.end()));
          live.erase(std::find(live.begin(), live.end(), current));
          current = live[rng.Uniform(live.size())];
        }
      }
      ASSERT_TRUE(batched->fs.Publish(batch_a, batched->log, true).ok());
      for (const ParsedEntry& entry : batch_b) {
        ASSERT_TRUE(single->fs.Publish({entry}, single->log, true).ok());
      }
      for (InodeNum inum : all) {
        ExpectSameFile(*batched, *single, inum);
      }
      // Remounting rebuilds the allocator from the live chains and extents;
      // it must account for exactly the blocks the commit left allocated.
      uint64_t live_free = batched->fs.allocator().free_blocks();
      PublicFs remounted(&batched->region, batched->layout);
      ASSERT_TRUE(remounted.Mount().ok());
      EXPECT_EQ(remounted.allocator().free_blocks(), live_free);
    }
  }

  // A 256-entry sequential run for one inode allocates its chain block once:
  // the commit's only allocation lands right after the batch's data blocks.
  std::vector<ParsedEntry> setup;
  setup.push_back(AppendCreate(kRootInode, "seq", 210));
  ASSERT_TRUE(fs_.Publish(setup, log_, true).ok());
  std::vector<ParsedEntry> batch;
  for (uint64_t i = 0; i < 256; ++i) {
    batch.push_back(AppendData(210, i * kBlockSize, Pattern(kBlockSize, static_cast<uint8_t>(i))));
  }
  Result<PublishPlan> plan = fs_.PlanPublish(batch, log_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->blocks_allocated, 256u);
  uint64_t first_data = plan->entries[0].segments[0].pblock;
  uint64_t free_after_plan = fs_.allocator().free_blocks();
  fs_.ExecuteCopies(*plan, true);
  ASSERT_TRUE(fs_.CommitPublish(*plan, batch).ok());
  EXPECT_EQ(fs_.allocator().free_blocks(), free_after_plan - 1);
  Result<Inode> inode = fs_.inodes().Get(210);
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode->extent_root, first_data + 256);
  std::vector<Extent> extents = fs_.extents().Load(*inode);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].count, 256u);
}

// The extent insert as a copy-and-rebuild over the whole list: the reference
// the in-place splice must match, extent for extent and freed run for run.
void ReferenceInsert(std::vector<Extent>* extents, uint64_t lblock, uint64_t count,
                     uint64_t pblock, std::vector<Extent>* freed) {
  uint64_t lend = lblock + count;
  std::vector<Extent> result;
  for (const Extent& e : *extents) {
    uint64_t e_end = e.lblock + e.count;
    if (e_end <= lblock || e.lblock >= lend) {
      result.push_back(e);
      continue;
    }
    if (e.lblock < lblock) {
      result.push_back(Extent{e.lblock, lblock - e.lblock, e.pblock});
    }
    uint64_t ov_start = std::max(e.lblock, lblock);
    uint64_t ov_end = std::min(e_end, lend);
    freed->push_back(Extent{ov_start, ov_end - ov_start, e.pblock + (ov_start - e.lblock)});
    if (e_end > lend) {
      result.push_back(Extent{lend, e_end - lend, e.pblock + (lend - e.lblock)});
    }
  }
  auto pos = std::lower_bound(result.begin(), result.end(), lblock,
                              [](const Extent& e, uint64_t v) { return e.lblock < v; });
  pos = result.insert(pos, Extent{lblock, count, pblock});
  if (pos != result.begin()) {
    auto prev = pos - 1;
    if (prev->lblock + prev->count == pos->lblock && prev->pblock + prev->count == pos->pblock) {
      prev->count += pos->count;
      pos = result.erase(pos) - 1;
    }
  }
  if (pos + 1 != result.end()) {
    auto next = pos + 1;
    if (pos->lblock + pos->count == next->lblock && pos->pblock + pos->count == next->pblock) {
      pos->count += next->count;
      result.erase(next);
    }
  }
  *extents = std::move(result);
}

bool SameExtents(const std::vector<Extent>& a, const std::vector<Extent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](const Extent& x, const Extent& y) {
    return x.lblock == y.lblock && x.count == y.count && x.pblock == y.pblock;
  });
}

TEST(ExtentListTest, InPlaceInsertMatchesReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng(seed);
    std::vector<Extent> spliced;
    std::vector<Extent> reference;
    uint64_t next_pblock = 1000;
    for (int op = 0; op < 2000; ++op) {
      if (op % 500 == 0) {
        spliced.clear();
        reference.clear();
      }
      uint64_t lblock;
      uint64_t count = 1 + rng.Uniform(rng.Bernoulli(0.5) ? 4 : 64);
      uint64_t pblock;
      uint64_t shape = rng.Uniform(5);
      const Extent* last = reference.empty() ? nullptr : &reference.back();
      if (shape == 0 && last != nullptr) {
        // Append that extends the last extent physically (merge).
        lblock = last->lblock + last->count;
        pblock = last->pblock + last->count;
      } else if (shape == 1 && last != nullptr) {
        // Logically adjacent append in a fresh physical run (no merge).
        lblock = last->lblock + last->count;
        pblock = next_pblock;
      } else if (shape == 2 && !reference.empty()) {
        // Rewrite inside an extent at its own physical offset: split, then
        // merge back with both remainders.
        const Extent& e = reference[rng.Uniform(reference.size())];
        uint64_t delta = rng.Uniform(e.count);
        lblock = e.lblock + delta;
        count = 1 + rng.Uniform(e.count - delta);
        pblock = e.pblock + delta;
      } else {
        // Arbitrary overwrite or sparse insert: overlaps and splits.
        lblock = rng.Uniform(1024);
        pblock = next_pblock;
      }
      next_pblock = std::max(next_pblock, pblock + count) + rng.Uniform(2);
      std::vector<Extent> freed_spliced;
      std::vector<Extent> freed_reference;
      ExtentList::InsertInto(&spliced, lblock, count, pblock, &freed_spliced);
      ReferenceInsert(&reference, lblock, count, pblock, &freed_reference);
      ASSERT_TRUE(SameExtents(spliced, reference))
          << "seed " << seed << " op " << op << " insert [" << lblock << "+" << count << "] -> "
          << pblock;
      ASSERT_TRUE(SameExtents(freed_spliced, freed_reference))
          << "seed " << seed << " op " << op;
    }
  }
}

TEST_F(PublicFsTest, ValidatorRejectsMissingLease) {
  Validator strict(&fs_.inodes(), &fs_.dirs(),
                   [](uint32_t client, InodeNum inum) { return false; });
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "x", 180));
  Status st = strict.Validate(batch);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kPermission);
}

TEST_F(PublicFsTest, ValidatorDetectsCorruptPayload) {
  Validator lenient(&fs_.inodes(), &fs_.dirs(), [](uint32_t, InodeNum) { return true; });
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "c", 190));
  batch.push_back(AppendData(190, 0, Pattern(1024, 3)));
  batch[1].payload[5] ^= 0xFF;  // Bit flip after CRC computation.
  Status st = lenient.Validate(batch);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kCorrupt);
}

TEST_F(PublicFsTest, ValidatorRejectsDirectoryCycleRename) {
  Validator lenient(&fs_.inodes(), &fs_.dirs(), [](uint32_t, InodeNum) { return true; });
  std::vector<ParsedEntry> setup;
  setup.push_back(AppendCreate(kRootInode, "a", 200, FileType::kDirectory));
  setup.push_back(AppendCreate(200, "b", 201, FileType::kDirectory));
  ASSERT_TRUE(fs_.Publish(setup, log_, true).ok());

  // rename("/a", "/a/b/a") — would make `a` its own descendant.
  LogEntryHeader h;
  h.type = LogOpType::kRename;
  h.inum = 200;
  h.parent = kRootInode;
  h.offset = 201;
  std::string payload("a");
  payload.push_back('\0');
  payload += "a";
  h.payload_len = static_cast<uint32_t>(payload.size());
  std::vector<ParsedEntry> batch;
  batch.push_back(Append(h, std::vector<uint8_t>(payload.begin(), payload.end())));
  Status st = lenient.Validate(batch);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kInvalid);
}

TEST(PrivateIndexTest, OverlaysComposeInSeqOrder) {
  PrivateIndex index;
  index.OnData(1, 0, 8192, /*seq=*/1, /*pos=*/0);
  index.OnData(1, 4096, 4096, /*seq=*/2, /*pos=*/8300);
  std::vector<PrivateIndex::Overlay> overlays = index.LookupRange(1, 0, 8192);
  ASSERT_EQ(overlays.size(), 2u);
  EXPECT_EQ(overlays[0].seq, 1u);
  EXPECT_EQ(overlays[1].seq, 2u);
  // Disjoint range sees nothing.
  EXPECT_TRUE(index.LookupRange(1, 1 << 20, 4096).empty());
  EXPECT_TRUE(index.LookupRange(2, 0, 4096).empty());
}

TEST(PrivateIndexTest, NameStateTransitions) {
  PrivateIndex index;
  EXPECT_EQ(index.LookupName(1, "f").first, PrivateIndex::NameState::kUnknown);
  index.OnCreate(1, "f", 50, FileType::kRegular, 0);
  auto [state, inum] = index.LookupName(1, "f");
  EXPECT_EQ(state, PrivateIndex::NameState::kExists);
  EXPECT_EQ(inum, 50u);
  index.OnUnlink(1, "f", 50, 100);
  EXPECT_EQ(index.LookupName(1, "f").first, PrivateIndex::NameState::kDeleted);
  EXPECT_TRUE(index.PendingDeleted(50));
}

TEST(PrivateIndexTest, DropPublishedForgetsOldEntries) {
  PrivateIndex index;
  index.OnData(1, 0, 4096, 1, /*pos=*/0);
  index.OnData(1, 4096, 4096, 2, /*pos=*/5000);
  index.OnCreate(2, "g", 60, FileType::kRegular, /*pos=*/2000);
  index.DropPublished(4000);
  EXPECT_TRUE(index.LookupRange(1, 0, 4096).empty());
  ASSERT_EQ(index.LookupRange(1, 4096, 4096).size(), 1u);
  EXPECT_EQ(index.LookupName(2, "g").first, PrivateIndex::NameState::kUnknown);
}

TEST(PrivateIndexTest, TruncateDropsOverlaysBeyondEnd) {
  PrivateIndex index;
  index.OnData(1, 0, 4096, 1, 0);
  index.OnData(1, 1 << 20, 4096, 2, 5000);
  index.OnTruncate(1, 8192, 10000);
  EXPECT_EQ(index.PendingSize(1).value(), 8192u);
  EXPECT_TRUE(index.LookupRange(1, 1 << 20, 4096).empty());
  EXPECT_EQ(index.LookupRange(1, 0, 4096).size(), 1u);
}

}  // namespace
}  // namespace linefs::fslib
