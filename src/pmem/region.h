// Persistent-memory emulation.
//
// A Region models one node's PM (Intel Optane App-Direct substitute): a
// byte-addressable space with an explicit persistence step, matching PMDK's
// store + clwb/sfence model. Writes land in the "CPU cache" (volatile until
// persisted); Persist() makes a range durable. Crash() models power/OS failure
// by rolling back every unpersisted write (undo data is captured per write),
// restoring the most recent durable image.
//
// Backing storage is allocated lazily in 2MB slabs so multi-GB simulated
// regions only consume host memory where touched. Slabs are recycled through
// a process-wide free pool: benchmarks construct hundreds of Regions back to
// back, and reusing slabs avoids re-paying the mmap/munmap + page-fault cost
// on every experiment. The pool keeps one free list per slab index and hands
// a slab back only at the index it last backed. A rebuilt Region with the
// same layout then writes its sparse log headers and metadata onto the 4KB
// pages the previous run already faulted in; a slab moved to another index
// would land those writes on pages the process never touched, and resident
// memory would grow run after run until every page of every slab is
// resident. An index whose list is empty gets a new slab. The pool holds at
// most kMaxPooledSlabs and frees what does not fit.
//
// Never-written bytes read as 0, but slabs are never zeroed up front. Each
// slab carries a validity bitmap with one bit per 64-byte line (PM's own
// persistence granularity): a set bit means the line's bytes are defined.
// The simulator writes sparsely — 64-byte log headers and extent blocks
// scattered over multi-MB slabs — so zeroing whole slabs on first touch
// (fresh or recycled) would spend most of a write-heavy run memsetting bytes
// that are never read back. Instead:
//   - a slab (fresh or from the pool) starts with an all-clear bitmap, so
//     acquiring one clears 4KB of bits instead of 2MB of bytes;
//   - a write zeroes only a partially covered first/last line that is still
//     invalid, copies its bytes, and marks the covered lines valid;
//   - a read copies valid runs and zero-fills invalid ones. A read inside one
//     64-line bitmap word (every small inode/dirent/extent-header read) takes
//     a fast path: one masked test, then one memcpy or one memset.
// Crash() needs nothing special: undo capture reads never-written lines as
// zeros, so a rollback writes zeros back.
//
// Undo capture is the hottest path in the whole simulator (every simulated
// log append lands here), so it is allocation-free in steady state: old data
// goes into a shared append-only arena, entries are fixed-size records, and
// the set of live (unpersisted) entries is a small flat vector — the file
// system persists what it writes almost immediately, so scanning the live set
// beats maintaining an ordered index.
//
// Timing is NOT modelled here: PM latency/bandwidth costs are charged by the
// hardware layer (hw::Node's PM links); a Region is pure state.

#ifndef SRC_PMEM_REGION_H_
#define SRC_PMEM_REGION_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/sim/result.h"

namespace linefs::pmem {

class Region {
 public:
  explicit Region(uint64_t size);
  ~Region();
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  uint64_t size() const { return size_; }

  // Volatile store: visible to reads immediately, durable only after Persist().
  void Write(uint64_t offset, const void* src, uint64_t n);

  // Reads current (possibly unpersisted) content.
  void Read(uint64_t offset, void* dst, uint64_t n) const;

  // Fills [offset, offset+n) with `value`.
  void Fill(uint64_t offset, uint8_t value, uint64_t n);

  // Region-internal copy (DMA-style data movement), with undo tracking.
  void Copy(uint64_t dst, uint64_t src, uint64_t n);

  template <typename T>
  void WriteObject(uint64_t offset, const T& obj) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write(offset, &obj, sizeof(T));
  }

  template <typename T>
  T ReadObject(uint64_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T obj;
    Read(offset, &obj, sizeof(T));
    return obj;
  }

  // Makes all writes fully contained in [offset, offset+n) durable.
  void Persist(uint64_t offset, uint64_t n);

  // Makes everything durable (fence + drain).
  void PersistAll();

  // Simulates a crash: rolls back all unpersisted writes (newest first) so the
  // region reflects exactly the last durable state.
  void Crash();

  // Number of bytes currently written but not yet persisted.
  uint64_t unpersisted_bytes() const;
  size_t pending_undo_count() const;

  // Lifetime counters (write amplification studies).
  uint64_t total_bytes_written() const { return total_bytes_written_; }

  // The process-wide slab pool: how many freed slabs it holds, and its cap.
  static constexpr size_t kMaxPooledSlabs = 4096;  // 8 GB worth of 2 MB slabs.
  static size_t pooled_slab_count();

 private:
  static constexpr uint64_t kSlabShift = 21;  // 2 MB slabs.
  static constexpr uint64_t kSlabSize = 1ULL << kSlabShift;
  static constexpr uint64_t kLineShift = 6;  // 64-byte validity lines.
  static constexpr uint64_t kLineSize = 1ULL << kLineShift;
  static constexpr uint64_t kLinesPerSlab = kSlabSize >> kLineShift;

  // Backing bytes plus their line-validity bitmap; only lines whose bit is set
  // hold defined bytes. Allocated uninitialised, recycled through the pool.
  struct Slab {
    Slab* next_pooled = nullptr;  // While pooled: next slab of the same index.
    uint64_t valid[kLinesPerSlab / 64];
    uint8_t bytes[kSlabSize];
  };
  class SlabPool;

  // One captured write: `arena_off/len` locate the old bytes in undo_arena_.
  struct UndoEntry {
    uint64_t offset = 0;
    uint64_t arena_off = 0;
    uint32_t len = 0;
    bool dead = false;
  };

  static SlabPool& Pool();
  Slab& SlabFor(uint64_t offset);
  void CopyIn(uint64_t offset, const void* src, uint64_t n);
  void CopyOut(uint64_t offset, void* dst, uint64_t n) const;
  // Copies slab bytes [off, off+n) to `dst`, zero-filling never-written lines.
  static void CopyRuns(const Slab& slab, uint64_t off, uint8_t* dst, uint64_t n);
  void MaybeCompact();

  uint64_t size_;
  std::vector<std::unique_ptr<Slab>> slabs_;
  // Append-ordered undo records (Crash unwinds newest first) + their data.
  std::vector<UndoEntry> undo_log_;
  std::vector<uint8_t> undo_arena_;
  // Indices into undo_log_ of not-yet-persisted entries, unordered. Persist
  // scans this (small) set and swap-removes what it kills.
  std::vector<uint32_t> live_;
  uint64_t total_bytes_written_ = 0;
};

}  // namespace linefs::pmem

#endif  // SRC_PMEM_REGION_H_
