// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--small]
//
// Repeats the workload on a fresh cluster until `seconds` of host time have
// passed (one warm-up plus at least kMinReps times), checks every
// repetition's outputs, and
// prints one JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (host medians, simulated-time
// results). --trace 1 alternates untraced and traced repetitions and reports
// the per-layer metrics, including the tracing overhead between the two.
// The exit code is nonzero when any check failed. See perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "perfbench/bed.h"
#include "perfbench/workloads.h"
#include "src/sim/stats.h"

namespace perfbench {
namespace {

// Repetitions whose simulated results are pooled into the sim_* metrics.
constexpr int kSubSeeds = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--small]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) {
        Usage("--trace takes 0 or 1");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (Workloads().count(args.workload) == 0) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (!(args.seconds > 0)) {
    Usage("--seconds must be positive");
  }
  return args;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Unit of a per-layer metric, from its name.
const char* LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_us") || ends(".p50") || ends(".p99")) {
    return "us";
  }
  if (ends("_ms")) {
    return "ms";
  }
  if (name.rfind("sim.host_self_s.", 0) == 0 || name.rfind("hw.host_cpu_busy_s.", 0) == 0 ||
      name.rfind("hw.nic_cpu_busy_s.", 0) == 0) {
    return "s";
  }
  if (ends("_mb_s")) {
    return "MB/s";
  }
  if (name == "sim.host_ns_per_event") {
    return "ns";
  }
  if (ends("_frac") || ends("_per_op") || ends("_per_user_byte") || ends("_per_chunk") ||
      ends("ratio") || name.rfind("nicfs.bypassed_frac.", 0) == 0) {
    return "ratio";
  }
  return "count";
}

// A run's seed expands into kSubSeeds consecutive sub-seeds; repetition r
// runs sub-seed r % kSubSeeds.
uint64_t SubSeed(uint64_t seed, int rep) { return seed * kSubSeeds + rep % kSubSeeds; }

double PercentileUs(const std::vector<linefs::sim::Time>& samples, double p) {
  linefs::sim::LatencyRecorder r;
  for (linefs::sim::Time t : samples) {
    r.Record(t);
  }
  return r.count() > 0 ? linefs::sim::ToMicros(r.Percentile(p)) : 0.0;
}

// Mean of the slowest (1 - q) share of `samples` (at least one): the tail
// at quantile q. Unlike the percentile itself it does not jump between the
// few recurring stall lengths a deterministic tail is made of.
double TailMeanUs(std::vector<linefs::sim::Time> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end(), std::greater<>());
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(std::ceil((1.0 - q) * static_cast<double>(samples.size()))));
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += static_cast<double>(samples[i]);
  }
  return linefs::sim::ToMicros(static_cast<linefs::sim::Time>(sum / static_cast<double>(n)));
}

// The sim_* metrics of one run: its sub-seed repetitions pooled.
std::vector<Metric> SimMetrics(const std::vector<const SimOutcome*>& reps) {
  SimOutcome all;
  double unit_p50 = 0;
  double unit_p999 = 0;
  for (const SimOutcome* s : reps) {
    all.fsync.insert(all.fsync.end(), s->fsync.begin(), s->fsync.end());
    all.unit.insert(all.unit.end(), s->unit.begin(), s->unit.end());
    unit_p50 += s->unit_p50_us / static_cast<double>(reps.size());
    unit_p999 += s->unit_p999_us / static_cast<double>(reps.size());
    all.bytes_written += s->bytes_written;
    all.write_time += s->write_time;
    all.bytes_read += s->bytes_read;
    all.read_time += s->read_time;
    all.ops_ok += s->ops_ok;
    all.ops_time += s->ops_time;
  }
  auto rate = [](double amount, linefs::sim::Time t) {
    return t > 0 ? amount / linefs::sim::ToSeconds(t) : 0.0;
  };
  // Open-loop workloads report generator percentiles (averaged over the
  // sub-seeds) instead of samples.
  const bool samples = !all.unit.empty();
  return {
      {"sim_write_gbps", rate(static_cast<double>(all.bytes_written), all.write_time) / 1e9,
       "GB/s"},
      {"sim_read_gbps", rate(static_cast<double>(all.bytes_read), all.read_time) / 1e9, "GB/s"},
      {"sim_fsync_p50_us", PercentileUs(all.fsync, 50), "us"},
      {"sim_fsync_p99_us", PercentileUs(all.fsync, 99), "us"},
      {"sim_op_p50_us", samples ? PercentileUs(all.unit, 50) : unit_p50, "us"},
      {"sim_op_p999_us", samples ? TailMeanUs(all.unit, 0.999) : unit_p999, "us"},
      {"sim_delivered_ops_s", rate(static_cast<double>(all.ops_ok), all.ops_time), "1/s"},
      {"sim_fsync_samples", static_cast<double>(all.fsync.size()), "count"},
  };
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadFn run = Workloads().at(args.workload);

  // Rep 0 warms the process (allocator, PM slab pool, page cache): it is
  // checked and its simulated results count, but its host times do not.
  // Traced runs alternate untraced and traced repetitions after it.
  std::vector<RepResult> reps;
  std::vector<std::string> errors;
  const Clock::time_point start = Clock::now();
  auto traced = [&](size_t rep) { return args.trace && rep > 0 && rep % 2 == 0; };
  for (int rep = 0;; ++rep) {
    Params params;
    params.seed = SubSeed(args.seed, rep);
    params.small = args.small;
    params.traced = traced(rep);
    params.first_rep = rep == 0;
    RepResult r = run(params);
    for (const std::string& e : r.errors) {
      errors.push_back("rep " + std::to_string(rep) + ": " + e);
    }
    // Simulated results are a pure function of the sub-seed, traced or not.
    if (rep >= kSubSeeds && !(r.sim == reps[rep - kSubSeeds].sim)) {
      errors.push_back("rep " + std::to_string(rep) + ": simulated results differ from rep " +
                       std::to_string(rep - kSubSeeds) + " (same sub-seed)");
    }
    reps.push_back(std::move(r));
    if (rep + 1 >= kSubSeeds && SecondsSince(start) >= args.seconds) {
      break;
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<const SimOutcome*> pooled;
  std::vector<double> setup;
  std::vector<double> run_s;
  std::vector<double> traced_run_s;
  std::map<std::string, std::vector<double>> layers;
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    attempted += r.attempted;
    failed += r.failed;
    if (i < static_cast<size_t>(kSubSeeds)) {
      pooled.push_back(&r.sim);
    }
    if (traced(i)) {
      traced_run_s.push_back(r.run_s);
      for (const auto& [name, v] : r.layers) {
        layers[name].push_back(v);
      }
    } else if (i > 0) {
      setup.push_back(r.setup_s);
      run_s.push_back(r.run_s);
    }
  }
  // One-off layers (the LZW timing) come from the first repetition.
  for (const auto& [name, v] : reps.front().layers) {
    layers.try_emplace(name, std::vector<double>{v});
  }
  const double host_run_s = Median(run_s);
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(attempted, 1));
  std::vector<Metric> sim = SimMetrics(pooled);
  const Metric fsync_samples = sim.back();
  sim.pop_back();

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", Median(setup), "s"},
               {"host_run_s", host_run_s, "s"},
               {"host_peak_rss_mb", PeakRssMb(), "MB"},
               {"ok_op_frac", 1.0 - failed_frac, "ratio"}};
    metrics.insert(metrics.end(), sim.begin(), sim.end());
  } else {
    for (const auto& [name, v] : layers) {
      metrics.push_back({name, Median(v), LayerUnit(name)});
    }
    const double events = Median(layers["sim.events"]);
    metrics.push_back(
        {"sim.host_ns_per_event", events > 0 ? host_run_s * 1e9 / events : 0, "ns"});
    metrics.push_back(
        {"obs.tracing_overhead_frac", Median(traced_run_s) / host_run_s - 1.0, "ratio"});
    metrics.push_back({"failed_op_frac", failed_frac, "ratio"});
    metrics.push_back(fsync_samples);
    std::sort(metrics.begin(), metrics.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });
  }

  std::fprintf(stderr, "perfbench: %s seed=%llu: %zu reps (%d sub-seeds, 1 warm-up, %zu traced)\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), reps.size(),
               kSubSeeds, traced_run_s.size());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = errors.empty() && failed == 0;
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
