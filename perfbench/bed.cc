#include "perfbench/bed.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace lf = linefs;

Bed::Bed(const lf::core::DfsConfig& config, RepResult* out) : out_(out) {
  cluster_ = std::make_unique<lf::core::Cluster>(&engine_, config);
  lf::Status st = cluster_->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: invalid config: %s\n", st.ToString().c_str());
    std::exit(2);
  }
}

Bed::~Bed() {
  if (profiler_ != nullptr) {
    profiler_->Detach();
  }
  // Let every service loop and co-runner finish so no coroutine outlives the
  // cluster it points into.
  cluster_->Shutdown();
  engine_.Run();
}

void Bed::Run(std::vector<lf::sim::Task<>> tasks) {
  int remaining = static_cast<int>(tasks.size());
  for (lf::sim::Task<>& task : tasks) {
    engine_.Spawn(
        [](lf::sim::Task<> t, int* remaining) -> lf::sim::Task<> {
          co_await std::move(t);
          --*remaining;
        }(std::move(task), &remaining),
        "client");
  }
  const lf::sim::Time deadline = engine_.Now() + 3600 * lf::sim::kSecond;
  while (remaining > 0 && engine_.Now() < deadline && engine_.RunOne()) {
  }
  if (remaining > 0) {
    std::fprintf(stderr, "perfbench: %d tasks did not complete (deadlock)\n", remaining);
    std::exit(1);
  }
}

void Bed::StartCoRunner(const std::vector<int>& nodes,
                        const lf::workloads::Streamcluster::Options& options) {
  for (int n : nodes) {
    co_runners_.push_back(
        std::make_unique<lf::workloads::Streamcluster>(&cluster_->hw_node(n), options));
    engine_.Spawn(co_runners_.back()->Run(), "streamcluster");
  }
}

void Bed::BeginMeasure(bool traced) {
  usage_before_ = TakeUsage(*cluster_, engine_);
  measure_begin_ = engine_.Now();
  if (traced) {
    profiler_ = std::make_unique<lf::obs::SelfProfiler>(&engine_);
  }
  out_->setup_s = SecondsSince(start_);
  measure_start_ = Clock::now();
}

void Bed::EndMeasure() {
  out_->run_s = SecondsSince(measure_start_);
  if (profiler_ != nullptr) {
    profiler_->Detach();
  }
  measure_end_ = engine_.Now();
  usage_after_ = TakeUsage(*cluster_, engine_);
  Check(usage_after_.clamped == 0,
        "sim: events were scheduled into the past (sim.schedule.clamped > 0)");
}

bool Bed::Check(bool ok, const std::string& what) {
  if (!ok) {
    out_->errors.push_back(what);
  }
  return ok;
}

}  // namespace perfbench
