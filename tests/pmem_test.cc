// Unit tests for the persistent-memory emulation: persist/crash semantics and
// the block allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/pmem/alloc.h"
#include "src/pmem/region.h"

namespace linefs::pmem {
namespace {

TEST(Region, FreshRegionReadsZero) {
  Region region(1 << 20);
  std::vector<uint8_t> buf(128, 0xFF);
  region.Read(4096, buf.data(), buf.size());
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
}

TEST(Region, WriteReadRoundTrip) {
  Region region(1 << 20);
  const char msg[] = "persist-and-publish";
  region.Write(100, msg, sizeof(msg));
  char out[sizeof(msg)] = {};
  region.Read(100, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
}

TEST(Region, WriteAcrossSlabBoundary) {
  Region region(8 << 20);
  std::vector<uint8_t> data(4 << 20);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  uint64_t offset = (2 << 20) - 777;  // Straddles the 2MB slab boundary.
  region.Write(offset, data.data(), data.size());
  std::vector<uint8_t> out(data.size());
  region.Read(offset, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST(Region, CrashRollsBackUnpersistedWrites) {
  Region region(1 << 20);
  uint32_t committed = 0xAAAAAAAA;
  region.Write(0, &committed, sizeof(committed));
  region.Persist(0, sizeof(committed));

  uint32_t uncommitted = 0xBBBBBBBB;
  region.Write(0, &uncommitted, sizeof(uncommitted));
  EXPECT_GT(region.unpersisted_bytes(), 0u);

  region.Crash();
  uint32_t out = 0;
  region.Read(0, &out, sizeof(out));
  EXPECT_EQ(out, committed);
  EXPECT_EQ(region.unpersisted_bytes(), 0u);
}

TEST(Region, CrashRollsBackNewestFirst) {
  Region region(1 << 20);
  uint8_t v1 = 1;
  region.Write(10, &v1, 1);
  region.Persist(10, 1);
  uint8_t v2 = 2;
  region.Write(10, &v2, 1);
  uint8_t v3 = 3;
  region.Write(10, &v3, 1);
  region.Crash();
  uint8_t out = 0;
  region.Read(10, &out, 1);
  EXPECT_EQ(out, 1);
}

TEST(Region, PersistAllDrainsEverything) {
  Region region(1 << 20);
  std::vector<uint8_t> data(1024, 0x42);
  region.Write(0, data.data(), data.size());
  region.Write(8192, data.data(), data.size());
  region.PersistAll();
  EXPECT_EQ(region.unpersisted_bytes(), 0u);
  region.Crash();  // No-op now.
  uint8_t out = 0;
  region.Read(0, &out, 1);
  EXPECT_EQ(out, 0x42);
}

TEST(Region, PartialPersistKeepsOtherWritesVolatile) {
  Region region(1 << 20);
  uint8_t a = 1;
  uint8_t b = 2;
  region.Write(0, &a, 1);
  region.Write(100, &b, 1);
  region.Persist(0, 1);
  region.Crash();
  uint8_t out_a = 9;
  uint8_t out_b = 9;
  region.Read(0, &out_a, 1);
  region.Read(100, &out_b, 1);
  EXPECT_EQ(out_a, 1);
  EXPECT_EQ(out_b, 0);
}

TEST(Region, CopyMovesData) {
  Region region(1 << 20);
  const char msg[] = "dma copy list";
  region.Write(0, msg, sizeof(msg));
  region.Copy(5000, 0, sizeof(msg));
  char out[sizeof(msg)] = {};
  region.Read(5000, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
}

// Never-written bytes must read 0 even though slabs are never zeroed up front:
// the process-wide pool hands back slabs holding an earlier Region's bytes.
// Each test below first dirties pooled slabs so stale data would show.
constexpr uint64_t kMiB = 1 << 20;
constexpr uint64_t kSlab = 2 * kMiB;

void DirtySlabPool(uint64_t size) {
  Region dirty(size);
  std::vector<uint8_t> junk(size, 0xA5);
  dirty.Write(0, junk.data(), junk.size());
  dirty.PersistAll();
}

bool AllZero(const std::vector<uint8_t>& v, size_t from = 0, size_t to = SIZE_MAX) {
  to = std::min(to, v.size());
  for (size_t i = from; i < to; ++i) {
    if (v[i] != 0) {
      return false;
    }
  }
  return true;
}

TEST(Region, RegionAfterDirtyRegionReadsZero) {
  DirtySlabPool(8 * kMiB);
  Region region(8 * kMiB);
  std::vector<uint8_t> out(8 * kMiB, 0xFF);
  region.Read(0, out.data(), out.size());
  EXPECT_TRUE(AllZero(out));
  // A write to one slab leaves its never-written neighbours zero.
  uint8_t b = 7;
  region.Write(3 * kMiB + 4096, &b, 1);
  region.Read(2 * kMiB, out.data(), 2 * kMiB);
  EXPECT_EQ(out[kMiB + 4096], 7);
  out[kMiB + 4096] = 0;
  EXPECT_TRUE(AllZero(out, 0, 2 * kMiB));
}

TEST(Region, PartialLineWritesLeaveRestOfLineZero) {
  struct Case {
    uint64_t at;  // Offset within a 64-byte line.
    uint64_t len;
  };
  for (Case c : {Case{0, 1}, Case{63, 1}, Case{0, 63}, Case{1, 63}, Case{17, 30}}) {
    DirtySlabPool(4 * kMiB);
    Region region(4 * kMiB);
    uint64_t line = 64 * 1001;
    std::vector<uint8_t> data(c.len, 0x3C);
    region.Write(line + c.at, data.data(), data.size());
    // The written line plus both neighbours.
    std::vector<uint8_t> out(3 * 64, 0xFF);
    region.Read(line - 64, out.data(), out.size());
    for (uint64_t i = 0; i < out.size(); ++i) {
      bool written = i >= 64 + c.at && i < 64 + c.at + c.len;
      ASSERT_EQ(out[i], written ? 0x3C : 0) << "at=" << c.at << " len=" << c.len << " i=" << i;
    }
  }
}

TEST(Region, ReadSpanningWrittenAndUnwrittenLinesAcrossSlabs) {
  DirtySlabPool(8 * kMiB);
  Region region(8 * kMiB);
  std::vector<uint8_t> shadow(8 * kMiB, 0);
  auto write = [&](uint64_t off, uint64_t len, uint8_t seed) {
    std::vector<uint8_t> data(len);
    for (uint64_t i = 0; i < len; ++i) {
      data[i] = static_cast<uint8_t>(seed + i * 13);
    }
    region.Write(off, data.data(), len);
    std::copy(data.begin(), data.end(), shadow.begin() + off);
  };
  write(kSlab - 4096, 100, 1);       // Partial lines, first slab.
  write(kSlab - 640, 64 * 3, 2);     // Whole lines.
  write(kSlab - 5, 10, 3);           // Straddles the slab boundary.
  write(kSlab + 64 * 70, 1, 4);      // Next bitmap word, second slab.
  write(kSlab + 64 * 200 + 9, 700, 5);
  write(2 * kSlab + 3, 1, 6);        // Third slab.
  uint64_t from = kSlab - 8192;
  uint64_t len = kSlab + 16384;      // Ends inside the third slab.
  std::vector<uint8_t> out(len, 0xFF);
  region.Read(from, out.data(), len);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), shadow.begin() + from));
  // Small reads inside one bitmap word: all valid, all invalid, mixed.
  for (uint64_t off : {kSlab - 640, kSlab - 4096 - 64, kSlab - 4096 + 90, kSlab - 8}) {
    uint8_t small[24];
    region.Read(off, small, sizeof(small));
    EXPECT_TRUE(std::equal(small, small + sizeof(small), shadow.begin() + off)) << off;
  }
}

TEST(Region, CrashRollsBackWriteToNeverWrittenLinesToZero) {
  DirtySlabPool(4 * kMiB);
  Region region(4 * kMiB);
  uint32_t kept = 0x11223344;
  region.Write(0, &kept, sizeof(kept));
  region.Persist(0, sizeof(kept));
  std::vector<uint8_t> data(5000, 0x77);
  region.Write(kSlab - 1000, data.data(), data.size());  // Fresh lines, two slabs.
  region.Write(70, data.data(), 10);                     // Fresh line beside a durable one.
  region.Crash();
  std::vector<uint8_t> out(8192, 0xFF);
  region.Read(kSlab - 4096, out.data(), out.size());
  EXPECT_TRUE(AllZero(out));
  region.Read(0, out.data(), 256);
  EXPECT_EQ(std::memcmp(out.data(), &kept, sizeof(kept)), 0);
  EXPECT_TRUE(AllZero(out, sizeof(kept), 256));
}

TEST(Region, FillAndCopyOnFreshLines) {
  DirtySlabPool(4 * kMiB);
  Region region(4 * kMiB);
  region.Fill(kSlab - 30, 0xEE, 70);  // Partial lines either side of a slab boundary.
  std::vector<uint8_t> out(256, 0xFF);
  region.Read(kSlab - 128, out.data(), out.size());
  for (uint64_t i = 0; i < out.size(); ++i) {
    bool filled = i >= 98 && i < 168;
    ASSERT_EQ(out[i], filled ? 0xEE : 0) << i;
  }
  // Copy from a range mixing filled and never-written bytes onto fresh lines:
  // the never-written source bytes arrive as zeros.
  region.Copy(3 * kMiB + 5, kSlab - 128, 256);
  std::vector<uint8_t> copied(256 + 64, 0xFF);
  region.Read(3 * kMiB - 27, copied.data(), copied.size());
  EXPECT_TRUE(AllZero(copied, 0, 32));
  EXPECT_TRUE(std::equal(out.begin(), out.end(), copied.begin() + 32));
  EXPECT_TRUE(AllZero(copied, 32 + 256));
}

TEST(Allocator, AllocatesDistinctBlocks) {
  BlockAllocator alloc(1000, 64);
  std::vector<uint64_t> blocks;
  for (int i = 0; i < 64; ++i) {
    Result<uint64_t> b = alloc.Alloc();
    ASSERT_TRUE(b.ok());
    EXPECT_GE(*b, 1000u);
    EXPECT_LT(*b, 1064u);
    for (uint64_t prev : blocks) {
      EXPECT_NE(*b, prev);
    }
    blocks.push_back(*b);
  }
  EXPECT_EQ(alloc.free_blocks(), 0u);
  EXPECT_FALSE(alloc.Alloc().ok());
}

TEST(Allocator, ContiguousRuns) {
  BlockAllocator alloc(0, 128);
  Result<uint64_t> run = alloc.Alloc(32);
  ASSERT_TRUE(run.ok());
  for (uint64_t i = 0; i < 32; ++i) {
    EXPECT_TRUE(alloc.IsAllocated(*run + i));
  }
  EXPECT_EQ(alloc.free_blocks(), 96u);
}

TEST(Allocator, FreeAndReuse) {
  BlockAllocator alloc(0, 16);
  Result<uint64_t> a = alloc.Alloc(16);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(alloc.Alloc().ok());
  alloc.Free(*a + 4, 8);
  EXPECT_EQ(alloc.free_blocks(), 8u);
  Result<uint64_t> b = alloc.Alloc(8);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a + 4);
}

TEST(Allocator, WrapAroundSearch) {
  BlockAllocator alloc(0, 64);
  ASSERT_TRUE(alloc.Alloc(60).ok());   // hint near the end
  alloc.Free(0, 60);                   // free the front
  Result<uint64_t> b = alloc.Alloc(16);  // must wrap to find it
  ASSERT_TRUE(b.ok());
  EXPECT_LT(*b, 60u);
}

TEST(Allocator, MarkAllocatedForRecovery) {
  BlockAllocator alloc(100, 32);
  alloc.MarkAllocated(110, 4);
  EXPECT_EQ(alloc.free_blocks(), 28u);
  EXPECT_TRUE(alloc.IsAllocated(110));
  EXPECT_FALSE(alloc.IsAllocated(109));
}

}  // namespace
}  // namespace linefs::pmem
