// StagePlacer: the cluster-wide scaling tick for pipeline-stage workers (§3.1).
//
// One loop over every registered stage group (one group per pipe x stage).
// Every check_interval it grows a stage by one worker on its home SmartNIC
// while the stage's wait queue exceeds DfsConfig::stage_queue_threshold (up
// to max_stage_workers), and retires one after stage_scale_down_intervals
// consecutive checks under threshold; one worker always survives. Output
// re-sequences through the downstream reorder buffers, so chunk wire order
// does not depend on how many workers a stage runs.

#ifndef SRC_PIPELINE_PLACER_H_
#define SRC_PIPELINE_PLACER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace linefs::pipeline {

class StagePlacer {
 public:
  struct Options {
    int queue_threshold = 5;
    int max_workers = 4;
    int scale_down_intervals = 3;
    sim::Time check_interval = 2 * sim::kMillisecond;
  };

  // One stage of one pipe. The callbacks close over the pipe's StageUnit so
  // the placer never touches NICFS internals directly.
  struct Group {
    std::function<size_t()> depth;        // Stage wait-queue depth.
    std::function<int()> workers;         // Current worker count.
    std::function<int()> retire_pending;  // Retire pills not yet consumed.
    std::function<void()> spawn;          // Start one more worker.
    std::function<void()> retire;         // Push one retire pill.
  };

  StagePlacer(sim::Engine* engine, const Options& options, obs::MetricScope scope);

  void RegisterGroup(Group group);

  void Start();
  void Stop();

  // One scaling pass over every group (also called by the periodic loop).
  void Tick();

 private:
  struct GroupState {
    Group group;
    int idle_intervals = 0;
  };

  sim::Task<> Loop();

  sim::Engine* engine_;
  Options options_;
  std::vector<GroupState> groups_;
  bool running_ = false;
  bool stopped_ = false;
  obs::Counter* placements_local_;
};

}  // namespace linefs::pipeline

#endif  // SRC_PIPELINE_PLACER_H_
