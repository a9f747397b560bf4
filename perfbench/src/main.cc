// perfbench: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --benchmark <BENCHMARK.json>
//             [--trace-out <file>]
//
// Prints a human-readable report, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Metric names, order and
// units are BENCHMARK.json's "end_to_end" and "per_layer" lists. Exits 1
// when a correctness gate fails and 2 on a usage or set-up error, or when
// the run's metrics and BENCHMARK.json disagree (no result line then).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "--benchmark <BENCHMARK.json> [--trace-out <file>]\n",
               why);
  return 2;
}

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The "end_to_end" or "per_layer" list of BENCHMARK.json; empty on error.
std::vector<MetricSpec> ReadMetricSpecs(const std::string& path,
                                        const char* list) {
  std::vector<MetricSpec> specs;
  std::string text;
  if (!perfbench::ReadFile(path, &text)) return specs;
  gks::Result<gks::JsonValue> bench = gks::JsonValue::Parse(text);
  const gks::JsonValue* metrics = bench.ok() ? bench->Find(list) : nullptr;
  if (metrics == nullptr) return specs;
  for (const gks::JsonValue& m : metrics->items()) {
    const gks::JsonValue* name = m.Find("name");
    const gks::JsonValue* unit = m.Find("unit");
    if (name == nullptr || unit == nullptr) return {};
    specs.push_back({name->GetString(), unit->GetString()});
  }
  return specs;
}

// Orders `values` by `specs`. A per-layer metric the workload did not
// exercise reports 0; a missing end-to-end metric, or a value BENCHMARK.json
// does not name, is an error.
bool Label(const std::vector<MetricSpec>& specs, const perfbench::Values& values,
           bool missing_is_zero, std::vector<std::pair<MetricSpec, double>>* out,
           std::string* error) {
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    if (it == values.end() && !missing_is_zero) {
      *error = "the run did not report " + spec.name;
      return false;
    }
    out->push_back({spec, it == values.end() ? 0.0 : it->second});
  }
  for (const auto& [name, value] : values) {
    bool named = false;
    for (const MetricSpec& spec : specs) named = named || spec.name == name;
    if (!named) {
      *error = "BENCHMARK.json does not name metric " + name;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string benchmark;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = static_cast<uint32_t>(std::stoul(value));
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--work-dir") args.work_dir = value;
    else if (flag == "--trace-out") args.trace_out = value;
    else if (flag == "--benchmark") benchmark = value;
    else return Usage(("unknown flag " + flag).c_str());
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0 ||
      benchmark.empty()) {
    return Usage("missing --workload, --work-dir, --seconds or --benchmark");
  }
  const char* list = args.trace ? "per_layer" : "end_to_end";
  const std::vector<MetricSpec> specs = ReadMetricSpecs(benchmark, list);
  if (specs.empty()) {
    return Usage(("no \"" + std::string(list) + "\" metrics in " + benchmark)
                     .c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage(("cannot create " + args.work_dir).c_str());

  perfbench::SpanLog::Get().set_enabled(args.trace);
  perfbench::RunOutput out;
  std::string error;
  bool ran = perfbench::RunWorkload(args, &out, &error);
  std::filesystem::remove_all(args.work_dir, ec);
  std::vector<std::pair<MetricSpec, double>> report;
  if (ran) {
    ran = Label(specs, args.trace ? out.layers : out.end_to_end, args.trace,
                &report, &error);
  }
  if (!ran) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 error.c_str());
    return 2;
  }
  if (args.trace && !args.trace_out.empty()) {
    perfbench::SpanLog::Get().Write(args.trace_out);
  }

  std::printf("== %s seed=%u seconds=%g trace=%d\n", args.workload.c_str(),
              args.seed, args.seconds, args.trace ? 1 : 0);
  for (const std::string& line : out.lines) std::printf("%s\n", line.c_str());
  std::printf("ops: %s\n", out.counts.ToString().c_str());
  std::printf("failed_ratio: %.6f (%llu of %llu ops)\n",
              out.counts.attempted() > 0
                  ? static_cast<double>(out.counts.failed()) /
                        static_cast<double>(out.counts.attempted())
                  : 0.0,
              static_cast<unsigned long long>(out.counts.failed()),
              static_cast<unsigned long long>(out.counts.attempted()));
  for (const auto& [spec, value] : report) {
    std::printf("  %-32s %14.4f %s\n", spec.name.c_str(), value,
                spec.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.counts.attempted());
  json += ", \"failed\": " + std::to_string(out.counts.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [spec, value] : report) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + spec.name + "\": {\"value\": " + Number(value) +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
