// Per-file extent maps (the public-area file index, cf. ext4 extents [45]).
//
// Each file's logical-block -> physical-block mapping is a sorted run-length
// list stored in a chain of PM blocks hanging off the inode's `extent_root`.
// Mutating operations use load/modify/store of the chain: with log-structured
// publication, files end up with few large extents (sequential 4MB chunks
// coalesce), so chains are short and the simple representation is both robust
// and fast. Publication rewrites the chain once per run of consecutive data
// entries for one inode (PublicFs::CommitPublish): it loads the list, splices
// every entry's runs into it in memory with InsertInto(), and stores it once.
// Data overwrites are copy-on-write: InsertInto() carves out any overlapped
// old runs and reports them so the caller can free the blocks.

#ifndef SRC_FSLIB_EXTENT_H_
#define SRC_FSLIB_EXTENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/fslib/inode.h"
#include "src/fslib/types.h"
#include "src/pmem/alloc.h"
#include "src/pmem/region.h"
#include "src/sim/result.h"

namespace linefs::fslib {

struct Extent {
  uint64_t lblock = 0;  // First logical block.
  uint64_t count = 0;   // Run length in blocks.
  uint64_t pblock = 0;  // First physical block.
};

class ExtentList {
 public:
  ExtentList(pmem::Region* region, pmem::BlockAllocator* allocator)
      : region_(region), allocator_(allocator) {}

  // Loads the full (sorted) extent list of `inode`.
  std::vector<Extent> Load(const Inode& inode) const;

  // Rewrites the chain for `inode` (allocating/freeing chain blocks) and
  // updates inode->extent_root. Does not persist the inode record itself.
  Status Store(Inode* inode, const std::vector<Extent>& extents);

  // Maps `lblock`; the returned extent is clipped to start at lblock.
  std::optional<Extent> Lookup(const Inode& inode, uint64_t lblock) const;

  // Inserts mapping [lblock, lblock+count) -> pblock. Overlapping parts of
  // existing extents are removed and appended to `freed` (physical runs).
  Status InsertRange(Inode* inode, uint64_t lblock, uint64_t count, uint64_t pblock,
                     std::vector<Extent>* freed);

  // Removes all mappings at or beyond `first_removed_lblock`.
  Status TruncateTo(Inode* inode, uint64_t first_removed_lblock, std::vector<Extent>* freed);

  // Frees the whole chain and all data blocks (unlink of a 0-link file).
  Status Destroy(Inode* inode);

  // In-memory helpers (also used on already-loaded lists).
  static std::optional<Extent> LookupIn(const std::vector<Extent>& extents, uint64_t lblock);
  // Splices [lblock, lblock+count) -> pblock into the sorted list in place:
  // O(log n) to find the overlap, no allocation for an append that extends
  // or follows the last extent.
  static void InsertInto(std::vector<Extent>* extents, uint64_t lblock, uint64_t count,
                         uint64_t pblock, std::vector<Extent>* freed);

 private:
  static constexpr uint32_t kNodeMagic = 0x45585431;  // "EXT1"

  struct NodeHeader {
    uint32_t magic = kNodeMagic;
    uint32_t count = 0;
    uint64_t next = 0;  // Next chain block, 0 = end.
  };
  static constexpr uint64_t kEntriesPerBlock = (kBlockSize - sizeof(NodeHeader)) / sizeof(Extent);

  void FreeChain(uint64_t first_block);

  pmem::Region* region_;
  pmem::BlockAllocator* allocator_;
};

}  // namespace linefs::fslib

#endif  // SRC_FSLIB_EXTENT_H_
