// Per-node DFS state container: the public PM area, per-client log areas,
// the shared-plan table used to hand publication copy lists to the kernel
// worker, and the node's per-epoch inode history bitmap (§3.6).

#ifndef SRC_CORE_DFS_NODE_H_
#define SRC_CORE_DFS_NODE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/core/config.h"
#include "src/fslib/layout.h"
#include "src/fslib/oplog.h"
#include "src/fslib/publicfs.h"
#include "src/hw/node.h"

namespace linefs::core {

class DfsNode {
 public:
  DfsNode(hw::Node* hw, const DfsConfig& config)
      : hw_(hw), config_(&config),
        layout_(fslib::Layout::Compute(config.pm_size, MakeLayoutConfig(config))),
        fs_(&hw->pm(), layout_) {
    fs_.Mkfs();
    logs_.resize(config.max_clients);
  }

  hw::Node& hw() { return *hw_; }
  int id() const { return hw_->id(); }
  fslib::PublicFs& fs() { return fs_; }
  const fslib::Layout& layout() const { return layout_; }

  // The node's copy of client `c`'s operational log (created on first use;
  // replicas mirror the primary's log at identical logical positions).
  fslib::LogArea& client_log(int client) {
    if (!logs_[client]) {
      logs_[client] = std::make_unique<fslib::LogArea>(
          &hw_->pm(), layout_.LogOffset(client), layout_.log_size,
          static_cast<uint32_t>(client), config_->materialize_data);
    }
    return *logs_[client];
  }

  // --- Shared plan table (NICFS -> kernel worker hand-off) ------------------

  // The table shares the plan: the kernel worker may consume it after the
  // NICFS-side caller has timed out and moved on (host crash mid-RPC).
  // TakePlan returns null once the plan was taken (or never stashed).
  uint64_t StashPlan(std::shared_ptr<const fslib::PublishPlan> plan) {
    uint64_t id = next_plan_id_++;
    plans_.emplace(id, std::move(plan));
    return id;
  }
  std::shared_ptr<const fslib::PublishPlan> TakePlan(uint64_t id) {
    auto it = plans_.find(id);
    if (it == plans_.end()) {
      return nullptr;
    }
    std::shared_ptr<const fslib::PublishPlan> plan = std::move(it->second);
    plans_.erase(it);
    return plan;
  }

  // --- History bitmap (§3.6) -------------------------------------------------

  void RecordInodeUpdate(uint64_t epoch, fslib::InodeNum inum) {
    history_[epoch].insert(inum);
  }
  std::set<fslib::InodeNum> InodesUpdatedSince(uint64_t from_epoch) const {
    std::set<fslib::InodeNum> result;
    for (const auto& [epoch, inodes] : history_) {
      if (epoch >= from_epoch) {
        result.insert(inodes.begin(), inodes.end());
      }
    }
    return result;
  }

 private:
  static fslib::LayoutConfig MakeLayoutConfig(const DfsConfig& config) {
    fslib::LayoutConfig lc;
    lc.inode_count = config.inode_count;
    lc.max_clients = config.max_clients;
    lc.log_size = config.log_size;
    return lc;
  }

  hw::Node* hw_;
  const DfsConfig* config_;
  fslib::Layout layout_;
  fslib::PublicFs fs_;
  std::vector<std::unique_ptr<fslib::LogArea>> logs_;
  std::unordered_map<uint64_t, std::shared_ptr<const fslib::PublishPlan>> plans_;
  uint64_t next_plan_id_ = 1;
  std::unordered_map<uint64_t, std::set<fslib::InodeNum>> history_;
};

}  // namespace linefs::core

#endif  // SRC_CORE_DFS_NODE_H_
