#include "src/pipeline/placer.h"

namespace linefs::pipeline {

StagePlacer::StagePlacer(sim::Engine* engine, const Options& options,
                         obs::MetricScope scope)
    : engine_(engine), options_(options),
      placements_local_(scope.Sub("placements").CounterAt("local")) {}

void StagePlacer::RegisterGroup(Group group) {
  groups_.push_back(GroupState{std::move(group), 0});
}

void StagePlacer::Start() {
  if (!running_) {
    running_ = true;
    engine_->Spawn(Loop(), "placer");
  }
}

void StagePlacer::Stop() { stopped_ = true; }

sim::Task<> StagePlacer::Loop() {
  while (!stopped_) {
    co_await engine_->SleepFor(options_.check_interval);
    if (stopped_) {
      break;
    }
    Tick();
  }
}

void StagePlacer::Tick() {
  size_t threshold = static_cast<size_t>(options_.queue_threshold);
  for (GroupState& gs : groups_) {
    Group& g = gs.group;
    size_t depth = g.depth();
    if (depth > threshold && g.workers() < options_.max_workers) {
      gs.idle_intervals = 0;
      placements_local_->Increment();
      g.spawn();
    } else if (depth < threshold && g.workers() - g.retire_pending() > 1) {
      // Scale back down: a stage that stayed under threshold for several
      // consecutive checks gives an extra worker back. The retire pill rides
      // the stage queue so the worker winds down at a chunk boundary; one
      // worker always survives.
      if (++gs.idle_intervals >= options_.scale_down_intervals) {
        gs.idle_intervals = 0;
        g.retire();
      }
    } else {
      gs.idle_intervals = 0;
    }
  }
}

}  // namespace linefs::pipeline
