// Test bed for one benchmark repetition: a fresh engine and LineFS cluster,
// the host clocks around set-up and the measured phase, and the
// correctness-check ledger. Everything is measured from outside the program:
// the bed only calls public entry points and reads public accessors.

#ifndef PERFBENCH_BED_H_
#define PERFBENCH_BED_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "src/core/cluster.h"
#include "src/obs/selfprof.h"
#include "src/sim/engine.h"
#include "src/workloads/streamcluster.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// What the command line asks of every workload.
struct Params {
  uint64_t seed = 1;    // This repetition's sub-seed.
  bool small = false;   // Shrunken sizes for the determinism self-test.
  bool traced = false;  // Attach the self-profiler and collect per-layer metrics.
  bool first_rep = false;  // The LZW round trip runs only on a process's first rep.
};

// What one repetition measured in simulated time. main.cc pools these
// over a run's sub-seed repetitions into the sim_* metrics; for a given
// (workload, seed) they never change.
struct SimOutcome {
  std::vector<linefs::sim::Time> fsync;  // Durability latency samples.
  std::vector<linefs::sim::Time> unit;   // Unit-of-work latency samples.
  // Open loop: the generator reports percentiles, not samples.
  double unit_p50_us = 0;
  double unit_p999_us = 0;
  uint64_t bytes_written = 0;
  linefs::sim::Time write_time = 0;
  uint64_t bytes_read = 0;
  linefs::sim::Time read_time = 0;
  uint64_t ops_ok = 0;  // Operations completed without error...
  linefs::sim::Time ops_time = 0;  // ...over this much simulated time.

  bool operator==(const SimOutcome&) const = default;
};

// The outcome of one repetition of a workload.
struct RepResult {
  double setup_s = 0;  // Host seconds from bed construction to BeginMeasure().
  double run_s = 0;    // Host seconds from BeginMeasure() to EndMeasure().
  uint64_t attempted = 0;
  uint64_t failed = 0;
  SimOutcome sim;
  std::map<std::string, double> layers;  // Per-layer metrics (traced reps).
  std::vector<std::string> errors;       // Failed correctness checks.
};

class Bed {
 public:
  Bed(const linefs::core::DfsConfig& config, RepResult* out);
  ~Bed();
  Bed(const Bed&) = delete;
  Bed& operator=(const Bed&) = delete;

  linefs::core::Cluster& cluster() { return *cluster_; }
  linefs::sim::Engine& engine() { return engine_; }

  // Spawns `tasks` as "client" tasks and steps the engine until all of them
  // complete. Exits the process on a deadlock: the unfinished tasks still
  // point into this bed, so it cannot be torn down.
  void Run(std::vector<linefs::sim::Task<>> tasks);
  void Drain(linefs::sim::Time t) { engine_.RunUntil(engine_.Now() + t); }

  // Starts a streamcluster co-runner on each of `nodes`.
  void StartCoRunner(const std::vector<int>& nodes,
                     const linefs::workloads::Streamcluster::Options& options);

  // True while every co-runner is still running.
  bool co_runners_running() const {
    for (const auto& sc : co_runners_) {
      if (sc->elapsed() != 0) {
        return false;
      }
    }
    return true;
  }

  // Ends set-up and starts the measured phase; with `traced`, attaches an
  // obs::SelfProfiler to the engine for the measured phase only.
  void BeginMeasure(bool traced);
  // Ends the measured phase and records run_s plus the engine-level checks.
  void EndMeasure();

  linefs::sim::Time measure_begin() const { return measure_begin_; }
  linefs::sim::Time measured_time() const { return measure_end_ - measure_begin_; }
  const Usage& usage_before() const { return usage_before_; }
  const Usage& usage_after() const { return usage_after_; }
  // Non-null for traced reps once the measured phase has ended.
  const linefs::obs::SelfProfiler* profiler() const { return profiler_.get(); }

  // Records a failed correctness check when `ok` is false.
  bool Check(bool ok, const std::string& what);

 private:
  Clock::time_point start_ = Clock::now();
  Clock::time_point measure_start_;
  RepResult* out_;
  linefs::sim::Engine engine_;
  std::unique_ptr<linefs::obs::SelfProfiler> profiler_;
  std::unique_ptr<linefs::core::Cluster> cluster_;
  std::vector<std::unique_ptr<linefs::workloads::Streamcluster>> co_runners_;
  linefs::sim::Time measure_begin_ = 0;
  linefs::sim::Time measure_end_ = 0;
  Usage usage_before_;
  Usage usage_after_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BED_H_
