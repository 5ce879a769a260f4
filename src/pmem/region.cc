#include "src/pmem/region.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace linefs::pmem {

namespace {

constexpr size_t kMaxPooledSlabs = 4096;  // 8 GB worth of 2 MB slabs.

// Bits [lo, hi] of one 64-bit word (0 <= lo <= hi < 64).
uint64_t BitRange(uint64_t lo, uint64_t hi) {
  return (~0ULL >> (63 - hi)) & (~0ULL << lo);
}

bool LineValid(const uint64_t* valid, uint64_t line) {
  return (valid[line >> 6] >> (line & 63)) & 1;
}

// Marks lines [first, last] valid.
void MarkValid(uint64_t* valid, uint64_t first, uint64_t last) {
  uint64_t w = first >> 6;
  uint64_t last_w = last >> 6;
  if (w == last_w) {
    valid[w] |= BitRange(first & 63, last & 63);
    return;
  }
  valid[w] |= BitRange(first & 63, 63);
  for (++w; w < last_w; ++w) {
    valid[w] = ~0ULL;
  }
  valid[last_w] |= BitRange(0, last & 63);
}

// First line in [line, end) whose validity differs from `state`, else `end`.
uint64_t RunEnd(const uint64_t* valid, uint64_t line, uint64_t end, bool state) {
  while (line < end) {
    uint64_t word = state ? ~valid[line >> 6] : valid[line >> 6];
    word >>= (line & 63);
    if (word != 0) {
      return std::min(end, line + static_cast<uint64_t>(std::countr_zero(word)));
    }
    line = (line | 63) + 1;
  }
  return end;
}

}  // namespace

// Process-wide recycled slabs. Benchmarks construct Regions by the hundred;
// reusing backing pages avoids re-paying allocation + fault-in each time.
// Single-threaded by design (the whole simulator is).
std::vector<std::unique_ptr<Region::Slab>>& Region::SlabPool() {
  static std::vector<std::unique_ptr<Slab>> pool;
  return pool;
}

void Region::CopyRuns(const Slab& slab, uint64_t off, uint8_t* dst, uint64_t n) {
  uint64_t end = off + n;
  uint64_t end_line = ((end - 1) >> kLineShift) + 1;
  uint64_t line = off >> kLineShift;
  uint64_t pos = off;
  while (pos < end) {
    bool state = LineValid(slab.valid, line);
    line = RunEnd(slab.valid, line, end_line, state);
    uint64_t run_end = std::min(end, line << kLineShift);
    if (state) {
      std::memcpy(dst + (pos - off), slab.bytes + pos, run_end - pos);
    } else {
      std::memset(dst + (pos - off), 0, run_end - pos);
    }
    pos = run_end;
  }
}

Region::Region(uint64_t size) : size_(size) {
  slabs_.resize((size + kSlabSize - 1) >> kSlabShift);
}

Region::~Region() {
  std::vector<std::unique_ptr<Slab>>& pool = SlabPool();
  for (std::unique_ptr<Slab>& slab : slabs_) {
    if (slab && pool.size() < kMaxPooledSlabs) {
      pool.push_back(std::move(slab));
    }
  }
}

Region::Slab& Region::SlabFor(uint64_t offset) {
  uint64_t idx = offset >> kSlabShift;
  assert(idx < slabs_.size());
  if (!slabs_[idx]) {
    std::vector<std::unique_ptr<Slab>>& pool = SlabPool();
    if (!pool.empty()) {
      slabs_[idx] = std::move(pool.back());
      pool.pop_back();
    } else {
      slabs_[idx].reset(new Slab);  // Default-init: bytes stay uninitialised.
    }
    std::memset(slabs_[idx]->valid, 0, sizeof(Slab::valid));
  }
  return *slabs_[idx];
}

void Region::CopyIn(uint64_t offset, const void* src, uint64_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(src);
  while (n > 0) {
    uint64_t off = offset & (kSlabSize - 1);
    uint64_t in_slab = std::min<uint64_t>(n, kSlabSize - off);
    Slab& slab = SlabFor(offset);
    uint64_t first = off >> kLineShift;
    uint64_t last = (off + in_slab - 1) >> kLineShift;
    // A partially covered line that was never written must read 0 outside
    // the bytes copied here.
    if ((off & (kLineSize - 1)) != 0 && !LineValid(slab.valid, first)) {
      std::memset(slab.bytes + (first << kLineShift), 0, kLineSize);
    }
    if (((off + in_slab) & (kLineSize - 1)) != 0 && !LineValid(slab.valid, last)) {
      std::memset(slab.bytes + (last << kLineShift), 0, kLineSize);
    }
    std::memcpy(slab.bytes + off, p, in_slab);
    MarkValid(slab.valid, first, last);
    offset += in_slab;
    p += in_slab;
    n -= in_slab;
  }
}

void Region::CopyOut(uint64_t offset, void* dst, uint64_t n) const {
  uint8_t* p = static_cast<uint8_t*>(dst);
  while (n > 0) {
    uint64_t off = offset & (kSlabSize - 1);
    uint64_t in_slab = std::min<uint64_t>(n, kSlabSize - off);
    uint64_t idx = offset >> kSlabShift;
    assert(idx < slabs_.size());
    const Slab* slab = slabs_[idx].get();
    uint64_t first = off >> kLineShift;
    uint64_t last = (off + in_slab - 1) >> kLineShift;
    if (slab == nullptr) {
      std::memset(p, 0, in_slab);
    } else if ((first >> 6) == (last >> 6)) {
      // Fast path: the whole range is covered by one bitmap word.
      uint64_t mask = BitRange(first & 63, last & 63);
      uint64_t bits = slab->valid[first >> 6] & mask;
      if (bits == mask) {
        std::memcpy(p, slab->bytes + off, in_slab);
      } else if (bits == 0) {
        std::memset(p, 0, in_slab);
      } else {
        CopyRuns(*slab, off, p, in_slab);
      }
    } else {
      CopyRuns(*slab, off, p, in_slab);
    }
    offset += in_slab;
    p += in_slab;
    n -= in_slab;
  }
}

void Region::Write(uint64_t offset, const void* src, uint64_t n) {
  assert(offset + n <= size_);
  // Capture undo data so an un-persisted write can be rolled back on Crash().
  // Old bytes append to the shared arena: no per-write allocation.
  UndoEntry undo;
  undo.offset = offset;
  undo.arena_off = undo_arena_.size();
  undo.len = static_cast<uint32_t>(n);
  undo_arena_.resize(undo_arena_.size() + n);
  CopyOut(offset, undo_arena_.data() + undo.arena_off, n);
  live_.push_back(static_cast<uint32_t>(undo_log_.size()));
  undo_log_.push_back(undo);
  CopyIn(offset, src, n);
  total_bytes_written_ += n;
}

void Region::Fill(uint64_t offset, uint8_t value, uint64_t n) {
  static std::vector<uint8_t> scratch;
  if (scratch.size() < n) {
    scratch.resize(n);
  }
  std::memset(scratch.data(), value, n);
  Write(offset, scratch.data(), n);
}

void Region::Copy(uint64_t dst, uint64_t src, uint64_t n) {
  static std::vector<uint8_t> scratch;
  if (scratch.size() < n) {
    scratch.resize(n);
  }
  CopyOut(src, scratch.data(), n);
  Write(dst, scratch.data(), n);
}

void Region::Read(uint64_t offset, void* dst, uint64_t n) const {
  assert(offset + n <= size_);
  CopyOut(offset, dst, n);
}

void Region::Persist(uint64_t offset, uint64_t n) {
  // Kill undo entries fully contained in the persisted range. The live set is
  // small (the file system persists the ranges it writes almost immediately),
  // so an unordered scan beats maintaining an index on the write path.
  uint64_t end = offset + n;
  size_t i = 0;
  while (i < live_.size()) {
    UndoEntry& e = undo_log_[live_[i]];
    if (e.offset >= offset && e.offset + e.len <= end) {
      e.dead = true;
      live_[i] = live_.back();
      live_.pop_back();
    } else {
      ++i;
    }
  }
  MaybeCompact();
}

void Region::PersistAll() {
  undo_log_.clear();
  undo_arena_.clear();
  live_.clear();
}

void Region::Crash() {
  // Roll back newest-first so overlapping writes unwind correctly.
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    if (!it->dead) {
      CopyIn(it->offset, undo_arena_.data() + it->arena_off, it->len);
    }
  }
  PersistAll();
}

uint64_t Region::unpersisted_bytes() const {
  uint64_t total = 0;
  for (uint32_t idx : live_) {
    total += undo_log_[idx].len;
  }
  return total;
}

size_t Region::pending_undo_count() const { return live_.size(); }

void Region::MaybeCompact() {
  if (undo_log_.size() < 1024 || live_.size() * 2 > undo_log_.size()) {
    return;
  }
  // In-place: slide live records (and their arena bytes) down over the dead
  // ones, preserving append order for Crash(). Capacity is kept, so steady
  // state does no allocation.
  size_t w = 0;
  uint64_t arena_w = 0;
  for (size_t r = 0; r < undo_log_.size(); ++r) {
    UndoEntry e = undo_log_[r];
    if (e.dead) {
      continue;
    }
    std::memmove(undo_arena_.data() + arena_w, undo_arena_.data() + e.arena_off, e.len);
    e.arena_off = arena_w;
    arena_w += e.len;
    undo_log_[w++] = e;
  }
  undo_log_.resize(w);
  undo_arena_.resize(arena_w);
  live_.resize(w);
  for (uint32_t i = 0; i < static_cast<uint32_t>(w); ++i) {
    live_[i] = i;
  }
}

}  // namespace linefs::pmem
