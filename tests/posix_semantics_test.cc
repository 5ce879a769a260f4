// xfstests-style generic POSIX semantics battery (paper §5.1: "LineFS
// successfully passes all 75 general xfstest cases"). Each case checks one
// POSIX behaviour through the LibFS API; the suite is parameterized across
// every DFS mode, since semantics must not depend on where the DFS runs.

#include <gtest/gtest.h>

#include "tests/co_test_util.h"

#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/libfs.h"

namespace linefs::core {
namespace {

DfsConfig Config(DfsMode mode) {
  DfsConfig config;
  config.mode = mode;
  config.num_nodes = 3;
  config.pm_size = 256ULL << 20;
  config.log_size = 8ULL << 20;
  config.inode_count = 65536;
  config.chunk_size = 1ULL << 20;
  config.materialize_data = true;
  return config;
}

class PosixTest : public ::testing::TestWithParam<DfsMode> {
 protected:
  PosixTest() {
    cluster_ = std::make_unique<Cluster>(&engine_, Config(GetParam()));
    Status start_st = cluster_->Start();
    EXPECT_TRUE(start_st.ok()) << start_st.ToString();
    fs_ = cluster_->CreateClient(0);
  }
  ~PosixTest() override {
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
    ASSERT_TRUE(done);
  }

  static std::vector<uint8_t> Bytes(const std::string& s) {
    return std::vector<uint8_t>(s.begin(), s.end());
  }

  sim::Engine engine_;
  std::unique_ptr<Cluster> cluster_;
  LibFs* fs_ = nullptr;
};

TEST_P(PosixTest, OpenNonexistentFails) {
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs_->Open("/nope", fslib::kOpenRead);
    EXPECT_FALSE(fd.ok());
    EXPECT_EQ(fd.code(), ErrorCode::kNotFound);
  });
}

TEST_P(PosixTest, CreateInMissingDirectoryFails) {
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs_->Open("/no/such/dir/f", fslib::kOpenCreate | fslib::kOpenWrite);
    EXPECT_FALSE(fd.ok());
  });
}

TEST_P(PosixTest, MkdirTwiceFails) {
  Run([&]() -> sim::Task<> {
    CO_ASSERT_OK(co_await fs_->Mkdir("/d"));
    Status st = co_await fs_->Mkdir("/d");
    EXPECT_EQ(st.code(), ErrorCode::kExists);
  });
}

TEST_P(PosixTest, NestedDirectories) {
  Run([&]() -> sim::Task<> {
    CO_ASSERT_OK(co_await fs_->Mkdir("/a"));
    CO_ASSERT_OK(co_await fs_->Mkdir("/a/b"));
    CO_ASSERT_OK(co_await fs_->Mkdir("/a/b/c"));
    Result<int> fd = co_await fs_->Open("/a/b/c/deep.txt", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs_->Write(*fd, Bytes("deep"))));
    co_await fs_->Close(*fd);
    Result<fslib::FileAttr> st = co_await fs_->Stat("/a/b/c/deep.txt");
    CO_ASSERT_OK(st);
    EXPECT_EQ(st->size, 4u);
  });
}

TEST_P(PosixTest, WriteAdvancesCursorReadFollows) {
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs_->Open("/cursor", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs_->Write(*fd, Bytes("hello "))));
    CO_ASSERT_OK((co_await fs_->Write(*fd, Bytes("world"))));
    fs_->Seek(*fd, 0);
    std::vector<uint8_t> out(11);
    Result<uint64_t> r = co_await fs_->Read(*fd, out);
    CO_ASSERT_OK(r);
    EXPECT_EQ(std::string(out.begin(), out.end()), "hello world");
  });
}

sim::Task<> OpenMany(LibFs* fs, int base, bool* done) {
  for (int i = 0; i < 64; ++i) {
    Result<int> fd = co_await fs->Open("/g" + std::to_string(base + i),
                                       fslib::kOpenCreate | fslib::kOpenWrite);
    EXPECT_TRUE(fd.ok());
  }
  *done = true;
}

// A Write/Read suspends (lease, op lock, log appends, CPU and PM charges)
// while another coroutine opens enough files to reallocate the descriptor
// table; the operation must still advance its own descriptor's cursor.
TEST_P(PosixTest, OpensDuringWriteAndReadKeepCursor) {
  Run([&]() -> sim::Task<> {
    Result<int> fd =
        co_await fs_->Open("/grow", fslib::kOpenCreate | fslib::kOpenWrite | fslib::kOpenRead);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> body(1 << 20);
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<uint8_t>(i * 7);
    }
    bool opened = false;
    engine_.Spawn(OpenMany(fs_, 0, &opened));
    CO_ASSERT_OK((co_await fs_->Write(*fd, body)));
    CO_ASSERT_OK((co_await fs_->Write(*fd, Bytes("tail"))));
    while (!opened) {
      co_await engine_.SleepFor(sim::kMillisecond);
    }
    Result<fslib::FileAttr> st = co_await fs_->Fstat(*fd);
    CO_ASSERT_OK(st);
    EXPECT_EQ(st->size, body.size() + 4);

    fs_->Seek(*fd, 0);
    opened = false;
    engine_.Spawn(OpenMany(fs_, 64, &opened));
    std::vector<uint8_t> out(body.size());
    Result<uint64_t> r = co_await fs_->Read(*fd, out);
    CO_ASSERT_OK(r);
    EXPECT_EQ(*r, body.size());
    EXPECT_TRUE(out == body);
    std::vector<uint8_t> tail(4);
    r = co_await fs_->Read(*fd, tail);
    CO_ASSERT_OK(r);
    EXPECT_EQ(std::string(tail.begin(), tail.end()), "tail");
    while (!opened) {
      co_await engine_.SleepFor(sim::kMillisecond);
    }
    CO_ASSERT_OK(co_await fs_->Fsync(*fd));
  });
}

TEST_P(PosixTest, AppendModeStartsAtEof) {
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs_->Open("/app", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs_->Write(*fd, Bytes("base"))));
    co_await fs_->Close(*fd);
    Result<int> fd2 = co_await fs_->Open("/app", fslib::kOpenWrite | fslib::kOpenAppend);
    CO_ASSERT_OK(fd2);
    CO_ASSERT_OK((co_await fs_->Write(*fd2, Bytes("+more"))));
    Result<fslib::FileAttr> st = co_await fs_->Stat("/app");
    CO_ASSERT_OK(st);
    EXPECT_EQ(st->size, 9u);
  });
}

TEST_P(PosixTest, TruncateToZeroAndRewrite) {
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs_->Open("/tz", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs_->Write(*fd, Bytes("old content here"))));
    Result<int> fd2 = co_await fs_->Open("/tz", fslib::kOpenWrite | fslib::kOpenTrunc);
    CO_ASSERT_OK(fd2);
    Result<fslib::FileAttr> st = co_await fs_->Stat("/tz");
    CO_ASSERT_OK(st);
    EXPECT_EQ(st->size, 0u);
    CO_ASSERT_OK((co_await fs_->Write(*fd2, Bytes("new"))));
    st = co_await fs_->Stat("/tz");
    CO_ASSERT_OK(st);
    EXPECT_EQ(st->size, 3u);
  });
}

TEST_P(PosixTest, TruncateExtendReadsZeros) {
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs_->Open("/ext", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs_->Write(*fd, Bytes("x"))));
    CO_ASSERT_OK((co_await fs_->Ftruncate(*fd, 10000)));
    std::vector<uint8_t> out(10000, 0xFF);
    Result<uint64_t> r = co_await fs_->Pread(*fd, out, 0);
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(*r, 10000u);
    EXPECT_EQ(out[0], 'x');
    for (size_t i = 1; i < out.size(); ++i) {
      if (out[i] != 0) {
        ADD_FAILURE() << "non-zero at " << i;
        break;
      }
    }
  });
}

TEST_P(PosixTest, ReadPastEofReturnsShort) {
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs_->Open("/short", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs_->Write(*fd, Bytes("12345"))));
    std::vector<uint8_t> out(100);
    Result<uint64_t> r = co_await fs_->Pread(*fd, out, 3);
    CO_ASSERT_OK(r);
    EXPECT_EQ(*r, 2u);
    Result<uint64_t> r2 = co_await fs_->Pread(*fd, out, 5);
    CO_ASSERT_OK(r2);
    EXPECT_EQ(*r2, 0u);
  });
}

TEST_P(PosixTest, SparseWriteReadsHolesAsZero) {
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs_->Open("/sparse", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs_->Pwrite(*fd, Bytes("end"), 1 << 20)));
    Result<fslib::FileAttr> st = co_await fs_->Stat("/sparse");
    CO_ASSERT_OK(st);
    EXPECT_EQ(st->size, (1u << 20) + 3);
    std::vector<uint8_t> out(4096, 0xAA);
    Result<uint64_t> r = co_await fs_->Pread(*fd, out, 4096);
    CO_ASSERT_OK(r);
    for (uint8_t b : out) {
      if (b != 0) {
        ADD_FAILURE() << "hole read non-zero";
        break;
      }
    }
  });
}

TEST_P(PosixTest, UnlinkThenRecreateIsEmpty) {
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs_->Open("/re", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs_->Write(*fd, Bytes("data"))));
    co_await fs_->Close(*fd);
    CO_ASSERT_OK(co_await fs_->Unlink("/re"));
    Result<int> fd2 = co_await fs_->Open("/re", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd2);
    Result<fslib::FileAttr> st = co_await fs_->Stat("/re");
    CO_ASSERT_OK(st);
    EXPECT_EQ(st->size, 0u);
  });
}

TEST_P(PosixTest, UnlinkMissingFails) {
  Run([&]() -> sim::Task<> {
    Status st = co_await fs_->Unlink("/ghost");
    EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  });
}

TEST_P(PosixTest, RenameToOtherDirectory) {
  Run([&]() -> sim::Task<> {
    CO_ASSERT_OK(co_await fs_->Mkdir("/src"));
    CO_ASSERT_OK(co_await fs_->Mkdir("/dst"));
    Result<int> fd = co_await fs_->Open("/src/f", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs_->Write(*fd, Bytes("move me"))));
    co_await fs_->Close(*fd);
    CO_ASSERT_OK(co_await fs_->Rename("/src/f", "/dst/g"));
    EXPECT_FALSE((co_await fs_->Stat("/src/f")).ok());
    Result<fslib::FileAttr> st = co_await fs_->Stat("/dst/g");
    CO_ASSERT_OK(st);
    EXPECT_EQ(st->size, 7u);
    // Content survives the move.
    Result<int> fd2 = co_await fs_->Open("/dst/g", fslib::kOpenRead);
    CO_ASSERT_OK(fd2);
    std::vector<uint8_t> out(7);
    CO_ASSERT_OK((co_await fs_->Read(*fd2, out)));
    EXPECT_EQ(std::string(out.begin(), out.end()), "move me");
  });
}

TEST_P(PosixTest, RenameReplacesExistingTarget) {
  Run([&]() -> sim::Task<> {
    Result<int> a = co_await fs_->Open("/a", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(a);
    CO_ASSERT_OK((co_await fs_->Write(*a, Bytes("AAA"))));
    Result<int> b = co_await fs_->Open("/b", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(b);
    CO_ASSERT_OK((co_await fs_->Write(*b, Bytes("BBBBBB"))));
    CO_ASSERT_OK(co_await fs_->Rename("/a", "/b"));
    Result<fslib::FileAttr> st = co_await fs_->Stat("/b");
    CO_ASSERT_OK(st);
    EXPECT_EQ(st->size, 3u);  // /b now holds /a's content.
    EXPECT_FALSE((co_await fs_->Stat("/a")).ok());
  });
}

TEST_P(PosixTest, RenameMissingSourceFails) {
  Run([&]() -> sim::Task<> {
    Status st = co_await fs_->Rename("/missing", "/dst");
    EXPECT_FALSE(st.ok());
  });
}

TEST_P(PosixTest, ReadDirListsEntries) {
  Run([&]() -> sim::Task<> {
    CO_ASSERT_OK(co_await fs_->Mkdir("/list"));
    for (int i = 0; i < 10; ++i) {
      Result<int> fd = co_await fs_->Open("/list/f" + std::to_string(i),
                                          fslib::kOpenCreate | fslib::kOpenWrite);
      CO_ASSERT_OK(fd);
      co_await fs_->Close(*fd);
    }
    CO_ASSERT_OK(co_await fs_->Unlink("/list/f3"));
    Result<std::vector<std::string>> names = co_await fs_->ReadDir("/list");
    CO_ASSERT_OK(names);
    EXPECT_EQ(names->size(), 9u);
    EXPECT_EQ(std::count(names->begin(), names->end(), "f3"), 0);
    EXPECT_EQ(std::count(names->begin(), names->end(), "f4"), 1);
  });
}

TEST_P(PosixTest, BadFdOperationsFail) {
  Run([&]() -> sim::Task<> {
    std::vector<uint8_t> buf(10);
    EXPECT_EQ((co_await fs_->Read(99, buf)).code(), ErrorCode::kBadFd);
    EXPECT_EQ((co_await fs_->Write(99, buf)).code(), ErrorCode::kBadFd);
    EXPECT_EQ((co_await fs_->Fsync(99)).code(), ErrorCode::kBadFd);
    EXPECT_EQ((co_await fs_->Close(99)).code(), ErrorCode::kBadFd);
    // Closed fd is invalid too.
    Result<int> fd = co_await fs_->Open("/bf", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK(co_await fs_->Close(*fd));
    EXPECT_EQ((co_await fs_->Write(*fd, buf)).code(), ErrorCode::kBadFd);
  });
}

TEST_P(PosixTest, LongNameRejected) {
  Run([&]() -> sim::Task<> {
    std::string long_name = "/" + std::string(100, 'x');
    Result<int> fd = co_await fs_->Open(long_name, fslib::kOpenCreate | fslib::kOpenWrite);
    EXPECT_FALSE(fd.ok());
  });
}

TEST_P(PosixTest, ManySmallFilesSurviveFsync) {
  Run([&]() -> sim::Task<> {
    CO_ASSERT_OK(co_await fs_->Mkdir("/many"));
    int last_fd = -1;
    for (int i = 0; i < 100; ++i) {
      Result<int> fd = co_await fs_->Open("/many/n" + std::to_string(i),
                                          fslib::kOpenCreate | fslib::kOpenWrite);
      CO_ASSERT_OK(fd);
      std::vector<uint8_t> data(512, static_cast<uint8_t>(i));
      CO_ASSERT_OK((co_await fs_->Write(*fd, data)));
      last_fd = *fd;
      co_await fs_->Close(*fd);
    }
    Result<int> fd = co_await fs_->Open("/many/n99", fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK(co_await fs_->Fsync(*fd));
    (void)last_fd;
    Result<std::vector<std::string>> names = co_await fs_->ReadDir("/many");
    CO_ASSERT_OK(names);
    EXPECT_EQ(names->size(), 100u);
  });
}

TEST_P(PosixTest, OverwriteMiddleKeepsEnds) {
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs_->Open("/mid", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> base(30000, 'A');
    CO_ASSERT_OK((co_await fs_->Pwrite(*fd, base, 0)));
    std::vector<uint8_t> mid(5000, 'B');
    CO_ASSERT_OK((co_await fs_->Pwrite(*fd, mid, 12345)));
    std::vector<uint8_t> out(30000);
    Result<uint64_t> r = co_await fs_->Pread(*fd, out, 0);
    CO_ASSERT_OK(r);
    EXPECT_EQ(out[0], 'A');
    EXPECT_EQ(out[12344], 'A');
    EXPECT_EQ(out[12345], 'B');
    EXPECT_EQ(out[17344], 'B');
    EXPECT_EQ(out[17345], 'A');
    EXPECT_EQ(out[29999], 'A');
  });
}


TEST_P(PosixTest, RmdirSemantics) {
  Run([&]() -> sim::Task<> {
    CO_ASSERT_OK(co_await fs_->Mkdir("/rd"));
    Result<int> fd = co_await fs_->Open("/rd/f", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    co_await fs_->Close(*fd);
    // Non-empty directory refuses removal.
    Status st = co_await fs_->Rmdir("/rd");
    EXPECT_EQ(st.code(), ErrorCode::kNotEmpty);
    CO_ASSERT_OK(co_await fs_->Unlink("/rd/f"));
    CO_ASSERT_OK(co_await fs_->Rmdir("/rd"));
    EXPECT_FALSE((co_await fs_->Stat("/rd")).ok());
    // Removing a file via rmdir fails.
    Result<int> f2 = co_await fs_->Open("/plain", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(f2);
    co_await fs_->Close(*f2);
    EXPECT_EQ((co_await fs_->Rmdir("/plain")).code(), ErrorCode::kNotDir);
  });
}

TEST_P(PosixTest, FstatTracksSize) {
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs_->Open("/fs", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<fslib::FileAttr> a0 = co_await fs_->Fstat(*fd);
    CO_ASSERT_OK(a0);
    EXPECT_EQ(a0->size, 0u);
    CO_ASSERT_OK((co_await fs_->Write(*fd, Bytes("123456"))));
    Result<fslib::FileAttr> a1 = co_await fs_->Fstat(*fd);
    CO_ASSERT_OK(a1);
    EXPECT_EQ(a1->size, 6u);
    EXPECT_EQ(a1->type, fslib::FileType::kRegular);
    EXPECT_FALSE((co_await fs_->Fstat(999)).ok());
  });
}

TEST_P(PosixTest, AccessProbesExistence) {
  Run([&]() -> sim::Task<> {
    EXPECT_EQ((co_await fs_->Access("/nothing")).code(), ErrorCode::kNotFound);
    Result<int> fd = co_await fs_->Open("/acc", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    co_await fs_->Close(*fd);
    CO_ASSERT_OK(co_await fs_->Access("/acc"));
    CO_ASSERT_OK(co_await fs_->Access("/acc", fslib::kPermWrite));
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, PosixTest,
                         ::testing::Values(DfsMode::kLineFS, DfsMode::kAssise,
                                           DfsMode::kAssiseBgRepl),
                         [](const ::testing::TestParamInfo<DfsMode>& info) {
                           std::string name = DfsModeName(info.param);
                           for (char& c : name) {
                             if (c == '-' || c == '+') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace linefs::core
