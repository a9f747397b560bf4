#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct RunOutput {
  Values end_to_end;  // printed with --trace 0
  Values layers;      // printed with --trace 1; an unexercised layer is absent
  OpCounts counts;
  bool correct = true;
  std::vector<std::string> lines;  // human-readable report, in order
};

// Runs one workload; returns false only on a set-up error (the run then
// prints no result).
bool RunWorkload(const Args& args, RunOutput* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
