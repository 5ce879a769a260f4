// Per-client operational log (§3.2).
//
// LibFS persists every mutation as a log entry in its private PM log area:
// a compact, strictly ordered record that NICFS later validates, publishes,
// and replicates. The log is a ring of 64-byte-aligned entries addressed by
// *logical* positions (monotonic byte offsets); physical placement wraps
// within the area and entries never straddle the wrap point (a kWrap marker
// pads to the end instead), so any [from,to) logical range maps to one
// contiguous physical span — which is what makes bulk chunk fetches possible.
//
// Durability protocol per append: payload bytes are written and persisted
// first, then the header (with magic + CRCs) is written and persisted as the
// commit record. A crash leaves a clean prefix (prefix crash consistency).

#ifndef SRC_FSLIB_OPLOG_H_
#define SRC_FSLIB_OPLOG_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/fslib/layout.h"
#include "src/fslib/types.h"
#include "src/pmem/region.h"
#include "src/sim/result.h"

namespace linefs::fslib {

enum class LogOpType : uint16_t {
  kInvalid = 0,
  kData = 1,      // File write: payload = data bytes at `offset`.
  kCreate = 2,    // payload = name; inum/parent/mode set.
  kMkdir = 3,     // payload = name.
  kUnlink = 4,    // payload = name; parent set.
  kRmdir = 5,     // payload = name.
  kRename = 6,    // payload = old_name '\0' new_name; parent/parent2 set.
  kTruncate = 7,  // offset = new size.
  kWrap = 8,      // Padding marker to the end of the ring.
};

inline constexpr uint32_t kLogEntryMagic = 0x4C4F4745;  // "LOGE"
inline constexpr uint16_t kLogFlagGhost = 1u << 0;      // Payload bytes elided (bench mode).

struct LogEntryHeader {
  uint32_t magic = 0;
  LogOpType type = LogOpType::kInvalid;
  uint16_t flags = 0;
  uint64_t seq = 0;     // Per-client monotonic sequence number.
  InodeNum inum = 0;    // Target inode.
  InodeNum parent = 0;  // Directory ops: parent inode. Rename: source parent.
  // Data: file offset. Truncate: new size. Rename: destination parent inode.
  uint64_t offset = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
  uint16_t mode = kPermAll;
  FileType ftype = FileType::kNone;
  uint32_t client_id = 0;
  uint32_t reserved = 0;
  uint32_t header_crc = 0;  // CRC of all preceding header bytes.

  InodeNum rename_dst_parent() const { return offset; }

  uint32_t ComputeHeaderCrc() const {
    return Crc32c(this, offsetof(LogEntryHeader, header_crc));
  }
};
static_assert(sizeof(LogEntryHeader) == 64, "log entries are 64-byte aligned");

// One decoded log entry (header + payload copy), as processed by validation,
// coalescing, and digestion.
struct ParsedEntry {
  LogEntryHeader header;
  std::vector<uint8_t> payload;
  uint64_t logical_pos = 0;  // Logical byte position of the header in the log.

  uint64_t TotalBytes() const { return AlignedSize(header.payload_len); }
  static uint64_t AlignedSize(uint32_t payload_len) {
    return (sizeof(LogEntryHeader) + payload_len + 63) / 64 * 64;
  }
};

// One chunk's replication payload, built once and then shared read-only by
// every stage, message and replica hop that carries the chunk. With
// materialized data it holds bytes: the raw log image, or the compressed copy
// the compress stage made. With elided data it holds no bytes, only the
// parsed entries the replicas mirror and publish: every header, wrap markers
// included, and the payload of each non-ghost entry (namespace names). Which
// transforms the bytes carry travels beside it (pipeline::Chunk flags,
// core::ReplChunkMsg), not in it.
struct Payload {
  std::vector<uint8_t> bytes;
  std::vector<ParsedEntry> entries;
  bool corrupt = false;  // Elided data: the source range failed to parse.
};
using PayloadPtr = std::shared_ptr<const Payload>;

// The private log of one LibFS client, backed by a slice of the node's PM.
class LogArea {
 public:
  // `materialize` controls whether payload bytes are really stored (tests)
  // or elided with time costs still charged (large benchmark sweeps).
  LogArea(pmem::Region* region, uint64_t base, uint64_t size, uint32_t client_id,
          bool materialize = true);

  // Appends one entry. Fails with kNoSpace when the ring cannot fit it until
  // publication reclaims space (head-of-line blocking; the caller decides how
  // to wait). `payload` may be empty.
  Result<uint64_t> Append(LogEntryHeader header, std::span<const uint8_t> payload);

  // True if an entry with `payload_len` fits right now.
  bool HasSpaceFor(uint32_t payload_len) const;

  // Advances the head (reclaim) pointer to logical position `up_to`.
  void Reclaim(uint64_t up_to);

  uint64_t head() const { return head_; }
  uint64_t tail() const { return tail_; }
  uint64_t used_bytes() const { return tail_ - head_; }
  uint64_t capacity() const { return size_ - kMetaBytes; }
  uint64_t next_seq() const { return next_seq_; }
  uint32_t client_id() const { return client_id_; }
  bool materialize() const { return materialize_; }

  // Copies the raw log image of logical range [from, to) into `out`
  // (the fetch stage's view of the chunk). The range never crosses the wrap
  // point if produced by ChunkEnd().
  void CopyRawOut(uint64_t from, uint64_t to, std::vector<uint8_t>* out) const;

  // Parses entries in logical range [from, to) directly from PM (host-side
  // digestion path used by the Assise baselines and by recovery). Wrap
  // markers are skipped unless `keep_wraps` (header only, no padding bytes).
  Result<std::vector<ParsedEntry>> ParseRange(uint64_t from, uint64_t to,
                                              bool keep_wraps = false) const;

  // The payload-level view of the log, where the materialize decision lives.
  // ReadPayload: range [from, to) as a replication payload (the raw image, or
  // the parsed entries when data is elided). ApplyPayload: replica-side
  // mirror of a payload at the logical position it held in the origin's log
  // (log areas are position-synchronised along the replication chain), then
  // the tail advances to `to`. ParsePayload: the entries a payload starting
  // at logical position `from` carries, wrap markers left out.
  PayloadPtr ReadPayload(uint64_t from, uint64_t to) const;
  void ApplyPayload(uint64_t from, uint64_t to, const Payload& payload);
  Result<std::vector<ParsedEntry>> ParsePayload(const Payload& payload, uint64_t from) const;

  // Largest logical position `end` in (from, from + max_bytes] such that
  // [from, end) holds whole entries and does not cross the wrap point.
  // Returns `from` if the log is empty at `from`.
  uint64_t ChunkEnd(uint64_t from, uint64_t max_bytes) const;

  // Region offset of the payload bytes of the entry at `logical_pos`.
  uint64_t PayloadPhys(uint64_t logical_pos) const {
    return Phys(logical_pos) + sizeof(LogEntryHeader);
  }

  // Writes the persistent log metadata (head pointer) and persists it.
  void PersistMeta();

  // Rebuilds head/tail/seq from PM after a crash: starts at the persisted
  // head and scans forward while entries are valid.
  Result<uint64_t> RecoverScan();

  // Parses entries out of a fetched raw chunk image (NIC-side view).
  static Result<std::vector<ParsedEntry>> ParseChunkImage(std::span<const uint8_t> image,
                                                          uint64_t base_logical);

  // Advances the tail to `logical_to` (a replica whose chunk bytes were
  // applied to this log by another hop).
  void SetTail(uint64_t logical_to) {
    if (logical_to > tail_) {
      tail_ = logical_to;
    }
  }

 private:
  // ApplyPayload's two halves. WriteRaw writes and persists a raw chunk
  // image; MirrorEntry writes and persists one parsed entry (elided data):
  // its header, and its payload unless the entry is a ghost or a wrap marker.
  // Replicas so keep logs that scan across the wrap point, and namespace
  // entries keep the names digestion needs.
  void WriteRaw(uint64_t logical_from, std::span<const uint8_t> image);
  void MirrorEntry(const ParsedEntry& entry);

  static constexpr uint64_t kMetaBytes = 64;  // Persistent head pointer record.

  struct MetaRecord {
    uint64_t magic = 0x4C4F474D45544131;  // "LOGMETA1"
    uint64_t head = 0;
    uint32_t client_id = 0;
    uint8_t pad[44] = {};
  };
  static_assert(sizeof(MetaRecord) == 64);

  uint64_t Phys(uint64_t logical) const { return base_ + kMetaBytes + logical % capacity_; }
  uint64_t ToWrapBoundary(uint64_t logical) const {
    return capacity_ - logical % capacity_;  // Bytes until physical end.
  }

  pmem::Region* region_;
  uint64_t base_;
  uint64_t size_;
  uint64_t capacity_;
  uint32_t client_id_;
  bool materialize_;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace linefs::fslib

#endif  // SRC_FSLIB_OPLOG_H_
