// The benchmark's workloads. Each runs one repetition on a fresh cluster:
// set-up, the measured phase, then its correctness checks.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>

#include "perfbench/bed.h"

namespace perfbench {

using WorkloadFn = RepResult (*)(const Params&);

// seqwrite_idle, syncwrite_busy, metadata_openloop.
const std::map<std::string, WorkloadFn>& Workloads();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
