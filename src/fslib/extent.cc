#include "src/fslib/extent.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace linefs::fslib {

std::vector<Extent> ExtentList::Load(const Inode& inode) const {
  std::vector<Extent> extents;
  uint64_t block = inode.extent_root;
  while (block != 0) {
    uint64_t off = block << kBlockShift;
    NodeHeader header = region_->ReadObject<NodeHeader>(off);
    assert(header.magic == kNodeMagic);
    // Bulk-read the block's entries in one go: Load sits on the read and
    // publish fast paths, and per-entry 24B reads dominate its cost.
    size_t base = extents.size();
    extents.resize(base + header.count);
    if (header.count > 0) {
      region_->Read(off + sizeof(NodeHeader), extents.data() + base,
                    header.count * sizeof(Extent));
    }
    block = header.next;
  }
  return extents;
}

void ExtentList::FreeChain(uint64_t first_block) {
  uint64_t block = first_block;
  while (block != 0) {
    NodeHeader header = region_->ReadObject<NodeHeader>(block << kBlockShift);
    allocator_->Free(block);
    block = header.next;
  }
}

Status ExtentList::Store(Inode* inode, const std::vector<Extent>& extents) {
  FreeChain(inode->extent_root);
  inode->extent_root = 0;
  if (extents.empty()) {
    return Status::Ok();
  }
  uint64_t blocks_needed = (extents.size() + kEntriesPerBlock - 1) / kEntriesPerBlock;
  std::vector<uint64_t> chain;
  chain.reserve(blocks_needed);
  for (uint64_t i = 0; i < blocks_needed; ++i) {
    Result<uint64_t> block = allocator_->Alloc();
    if (!block.ok()) {
      for (uint64_t b : chain) {
        allocator_->Free(b);
      }
      return block.status();
    }
    chain.push_back(*block);
  }
  size_t idx = 0;
  for (uint64_t i = 0; i < blocks_needed; ++i) {
    uint64_t off = chain[i] << kBlockShift;
    NodeHeader header;
    header.count = static_cast<uint32_t>(
        std::min<size_t>(kEntriesPerBlock, extents.size() - idx));
    header.next = i + 1 < blocks_needed ? chain[i + 1] : 0;
    // One contiguous image per chain block: a single undo record and persist
    // instead of count+1 of each.
    alignas(8) uint8_t image[kBlockSize];
    std::memcpy(image, &header, sizeof(header));
    std::memcpy(image + sizeof(header), extents.data() + idx, header.count * sizeof(Extent));
    uint64_t len = sizeof(NodeHeader) + header.count * sizeof(Extent);
    region_->Write(off, image, len);
    region_->Persist(off, len);
    idx += header.count;
  }
  inode->extent_root = chain[0];
  return Status::Ok();
}

std::optional<Extent> ExtentList::LookupIn(const std::vector<Extent>& extents, uint64_t lblock) {
  // Binary search for the last extent with lblock <= target.
  auto it = std::upper_bound(extents.begin(), extents.end(), lblock,
                             [](uint64_t v, const Extent& e) { return v < e.lblock; });
  if (it == extents.begin()) {
    return std::nullopt;
  }
  --it;
  if (lblock >= it->lblock && lblock < it->lblock + it->count) {
    Extent clipped;
    uint64_t delta = lblock - it->lblock;
    clipped.lblock = lblock;
    clipped.count = it->count - delta;
    clipped.pblock = it->pblock + delta;
    return clipped;
  }
  return std::nullopt;
}

std::optional<Extent> ExtentList::Lookup(const Inode& inode, uint64_t lblock) const {
  return LookupIn(Load(inode), lblock);
}

void ExtentList::InsertInto(std::vector<Extent>* extents, uint64_t lblock, uint64_t count,
                            uint64_t pblock, std::vector<Extent>* freed) {
  std::vector<Extent>& list = *extents;
  uint64_t lend = lblock + count;
  // The list is sorted and disjoint, so starts and ends both ascend: [lo, hi)
  // is exactly the run of extents overlapping [lblock, lend).
  auto lo = std::partition_point(list.begin(), list.end(),
                                 [&](const Extent& e) { return e.lblock + e.count <= lblock; });
  auto hi = std::partition_point(lo, list.end(),
                                 [&](const Extent& e) { return e.lblock < lend; });
  // Overlapped middles are replaced: report freed physical blocks.
  if (freed != nullptr) {
    for (auto it = lo; it != hi; ++it) {
      uint64_t ov_start = std::max(it->lblock, lblock);
      uint64_t ov_end = std::min(it->lblock + it->count, lend);
      freed->push_back(Extent{ov_start, ov_end - ov_start, it->pblock + (ov_start - it->lblock)});
    }
  }
  // Build the (at most 3) runs that replace [first, last): the surviving left
  // remainder, the new run, the surviving right remainder. The new run merges
  // with its neighbour on either side when both logical and physical blocks
  // are contiguous; a neighbour outside the overlap widens [first, last).
  auto contiguous = [](const Extent& a, const Extent& b) {
    return a.lblock + a.count == b.lblock && a.pblock + a.count == b.pblock;
  };
  Extent runs[3];
  size_t n = 0;
  Extent fresh{lblock, count, pblock};
  auto first = lo;
  auto last = hi;
  if (lo != hi && lo->lblock < lblock) {
    Extent left{lo->lblock, lblock - lo->lblock, lo->pblock};
    if (contiguous(left, fresh)) {
      fresh = Extent{left.lblock, left.count + fresh.count, left.pblock};
    } else {
      runs[n++] = left;
    }
  } else if (first != list.begin() && contiguous(*(first - 1), fresh)) {
    --first;
    fresh = Extent{first->lblock, first->count + fresh.count, first->pblock};
  }
  std::optional<Extent> right;
  if (lo != hi && (hi - 1)->lblock + (hi - 1)->count > lend) {
    const Extent& e = *(hi - 1);
    right = Extent{lend, e.lblock + e.count - lend, e.pblock + (lend - e.lblock)};
    if (contiguous(fresh, *right)) {
      fresh.count += right->count;
      right.reset();
    }
  } else if (last != list.end() && contiguous(fresh, *last)) {
    fresh.count += last->count;
    ++last;
  }
  runs[n++] = fresh;
  if (right.has_value()) {
    runs[n++] = *right;
  }
  // Splice: overwrite in place, then erase or insert the difference. An
  // append that extends the last extent is one overwrite.
  size_t replaced = static_cast<size_t>(last - first);
  size_t shared = std::min(n, replaced);
  auto tail = std::copy(runs, runs + shared, first);
  if (n < replaced) {
    list.erase(tail, last);
  } else if (n > replaced) {
    list.insert(tail, runs + shared, runs + n);
  }
}

Status ExtentList::InsertRange(Inode* inode, uint64_t lblock, uint64_t count, uint64_t pblock,
                               std::vector<Extent>* freed) {
  std::vector<Extent> extents = Load(*inode);
  InsertInto(&extents, lblock, count, pblock, freed);
  return Store(inode, extents);
}

Status ExtentList::TruncateTo(Inode* inode, uint64_t first_removed_lblock,
                              std::vector<Extent>* freed) {
  std::vector<Extent> extents = Load(*inode);
  std::vector<Extent> kept;
  for (const Extent& e : extents) {
    uint64_t e_end = e.lblock + e.count;
    if (e_end <= first_removed_lblock) {
      kept.push_back(e);
    } else if (e.lblock < first_removed_lblock) {
      uint64_t keep = first_removed_lblock - e.lblock;
      kept.push_back(Extent{e.lblock, keep, e.pblock});
      if (freed != nullptr) {
        freed->push_back(Extent{first_removed_lblock, e.count - keep, e.pblock + keep});
      }
    } else if (freed != nullptr) {
      freed->push_back(e);
    }
  }
  return Store(inode, kept);
}

Status ExtentList::Destroy(Inode* inode) {
  std::vector<Extent> extents = Load(*inode);
  for (const Extent& e : extents) {
    allocator_->Free(e.pblock, e.count);
  }
  FreeChain(inode->extent_root);
  inode->extent_root = 0;
  return Status::Ok();
}

}  // namespace linefs::fslib
