// Shared pieces of the perfbench program: metric reports, op accounting,
// the in-memory span log, the closed-loop client and the seeded inputs.
// Everything here drives the engine through its public headers only.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_value.h"
#include "core/searcher.h"
#include "index/xml_index.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch space for corpora, indexes, rt dirs
  std::string trace_out;  // span log written here at exit (trace runs)
};

// Metric name -> value. Names and units come from BENCHMARK.json, which
// main.cc reads to order, label and check what a run reports.
using Values = std::map<std::string, double>;

// Every attempted op lands in exactly one bucket; everything but kOk is a
// failure and feeds `failed` in the result line.
enum class Outcome : uint8_t {
  kOk = 0,
  kOverloaded,
  kDeadline,
  kTransport,
  kInvalidJson,
  kError,        // any other wire error (bad_request, search_failed, ...)
  kWrongAnswer,  // well-formed reply that failed a correctness check
  kCount,
};
const char* OutcomeName(Outcome outcome);

struct OpCounts {
  std::array<uint64_t, static_cast<size_t>(Outcome::kCount)> by{};
  void Add(Outcome outcome, uint64_t n = 1) {
    by[static_cast<size_t>(outcome)] += n;
  }
  void Merge(const OpCounts& other) {
    for (size_t i = 0; i < by.size(); ++i) by[i] += other.by[i];
  }
  uint64_t attempted() const {
    uint64_t total = 0;
    for (uint64_t n : by) total += n;
    return total;
  }
  uint64_t failed() const { return attempted() - by[0]; }
  std::string ToString() const;
};

// ---- statistics -----------------------------------------------------------

double Percentile(std::vector<double> values, double p);  // linear, p in [0,1]
double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);
double NowSeconds();  // steady clock

// A shared cloud host can run every vCPU of a VM up to twice as slowly for
// minutes at a time while its other tenants are busy, with no steal time
// reported: wall-clock and CPU time both stretch. HostProbeSeconds times a
// fixed piece of benchmark-owned work (sort, pointer chase over 8 MB,
// string hash map; no engine code), the fastest of five passes. Set-up
// time, throughput and latency are reported scaled to a host on which the probe
// takes kProbeRefS: a figure measured while the probe took twice as long
// is reported as if the work had run twice as fast (README.md, Steadiness,
// shows how closely the engine's speed follows the probe's).
constexpr double kProbeRefS = 0.05;
double HostProbeSeconds();
double HostSlowdown();  // HostProbeSeconds() / kProbeRefS

// ---- spans ----------------------------------------------------------------

// In-memory span log: name, start, end, parent and request id, recorded
// only from the benchmark's own code around calls into the engine. Spans
// are kept in memory and written out once, at exit.
class SpanLog {
 public:
  static SpanLog& Get();
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

  int64_t Open(std::string_view name, uint64_t request_id);
  void Close(int64_t index);

  struct Aggregate {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // total minus the time child spans cover
  };
  // Per span name, over every closed span recorded at or after position
  // `from` (see size()) whose name starts with `prefix`.
  std::map<std::string, Aggregate> Aggregates(std::string_view prefix,
                                              size_t from) const;
  size_t size() const;
  bool Write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    int64_t parent = -1;
    uint64_t request_id = 0;
    double start_s = 0.0;
    double end_s = -1.0;
  };
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

// RAII span; a no-op when the log is disabled. Parents nest per thread.
class Span {
 public:
  explicit Span(std::string_view name, uint64_t request_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
  int64_t saved_parent_ = -1;
};

// ---- closed-loop client -----------------------------------------------------

struct OpRecord {
  double rtt_ms = 0.0;     // client round trip (from due, on a paced lane)
  double late_ms = 0.0;    // paced lane: how late the op was sent
  double server_ms = 0.0;  // the reply's own elapsed_ms (0 if absent)
  size_t bytes = 0;        // reply size
  Outcome outcome = Outcome::kOk;
  int window = 0;          // the loop window the op was sent in
};

// One connection's op source: returns the request line for op `seq`
// (without newline), or "" to stop this connection early.
using MakeOp = std::function<std::string(uint64_t seq)>;
// Judges a successful (ok:true) reply, given parsed and raw; returns kOk
// or kWrongAnswer.
using CheckOp = std::function<Outcome(uint64_t seq, const gks::JsonValue&,
                                      const std::string& raw)>;

struct LoopLane {
  MakeOp make;
  CheckOp check;
  std::string span_name;  // bench span around each call (trace runs)
  // 0: closed loop, each op sent when the previous one replied. Otherwise
  // op `seq` is due `seq` * interval_s seconds of loop time after the
  // start (pauses between windows left out) and is sent when due, or at
  // once when the lane runs late; its rtt_ms then counts from when it was
  // due.
  double interval_s = 0.0;
};

struct LoopWindow {
  double seconds = 0.0;  // from resume until the last op sent in it replied
  // Host speed in the window: the mean of HostSlowdown() just before and
  // just after it (1 = reference speed, 2 = the host runs fixed work twice
  // as slowly); 1 when the host was not probed.
  double host_slowdown = 1.0;
};

struct LoopResult {
  std::vector<std::vector<OpRecord>> lanes;  // per connection, in send order
  std::vector<LoopWindow> windows;
  double elapsed_s = 0.0;  // the windows' seconds summed (pauses left out)
  // HostSlowdown() before the first window and after each one; empty when
  // the host was not probed.
  std::vector<double> probes;
};

// Runs every lane on its own connection to 127.0.0.1:`port`, each sending
// its next op only after the previous reply arrived, for `seconds` of loop
// time cut into `windows` equal windows. Between windows every lane pauses
// with no op in flight; with `probe_host`, HostSlowdown() runs alone in
// each pause and before the first window. With `trace`, every op runs
// under a bench span.
LoopResult RunClosedLoop(int port, const std::vector<LoopLane>& lanes,
                         double seconds, bool trace, int windows = 1,
                         bool probe_host = false);

// Sends `lines` in order on one connection; every reply must be ok.
bool SendAll(int port, const std::vector<std::string>& lines,
             std::string* error);

// Drops "elapsed_ms" and "epoch" members (and "plan" with `strip_plan`)
// so two replies to the same request can be compared byte for byte.
std::string StripVolatile(std::string line, bool strip_plan = false);

// ---- seeded inputs ----------------------------------------------------------

struct TermStat {
  std::string term;
  uint64_t df = 0;  // postings of the term in the corpus index
};
// Query-able vocabulary of `index`: terms that survive query analysis
// unchanged, with their posting counts.
std::vector<TermStat> Vocabulary(const gks::XmlIndex& index);

struct QuerySpec {
  std::string text;
  uint32_t keywords = 0;
  uint32_t s = 1;  // 0 = s=|Q|
};

// Draws `count` distinct queries from `vocab`: keyword counts follow the
// fixed mix `mix` (shares of 1/2/3 keywords) in every prefix of the
// result until a count runs out of fresh queries (its later slots then
// take more keywords; fewer than `count` only if three cannot fill them),
// terms are drawn with weight df^`df_power`, and `s_all_share` of the
// multi-keyword queries use s=|Q|. Terms holding more than
// `max_df_share` of all postings are left out.
std::vector<QuerySpec> DrawQueries(const std::vector<TermStat>& vocab,
                                   uint32_t seed, size_t count,
                                   std::array<double, 3> mix,
                                   double s_all_share, double df_power,
                                   double max_df_share);

// Zipf-skewed op stream over a pool of `pool` entries (index sequence);
// index 0 is the most popular, rank r has weight 1/(r+1)^theta.
std::vector<uint32_t> ZipfStream(uint32_t seed, size_t pool, size_t length,
                                 double theta);

// Reorders `pool` so Zipf rank r holds the query at cost quantile
// Golden(r), near the median for the most popular ranks (cost estimated
// from its terms' document frequencies): the popular head has the same
// cost profile on every seed.
void OrderForZipf(const std::vector<TermStat>& vocab,
                  std::vector<QuerySpec>* pool);

std::string QueryLine(const QuerySpec& spec, size_t top, uint32_t top_k,
                      bool refine);

// Shape report over the queries actually sent (`sent` indexes `pool`).
struct ShapeReport {
  std::array<double, 3> keyword_share{};  // 1/2/3 keywords
  double s_all_share = 0.0;
  double merge_share = 0.0, probe_share = 0.0, hybrid_share = 0.0;
  double topk_engaged_share = 0.0;
  size_t distinct = 0;
  size_t cache_capacity = 0;
  size_t sent = 0;
  double repeat_rate = 0.0;
  std::string ToString() const;
};
// Bounds a workload's stream shape holds on any seed (README.md lists
// them per workload).
struct ShapeBounds {
  double min_repeat = 0.0;
  double max_repeat = 1.0;
  bool distinct_over_cache = false;  // more distinct queries than cache slots
  double min_s_all = 0.0;
  double min_topk_engaged = 0.0;
  double min_probe = 0.0;  // probe + hybrid plans
};
// One message per bound the shape misses; empty when it holds them all.
std::vector<std::string> CheckShape(const ShapeReport& shape,
                                    const ShapeBounds& bounds);

ShapeReport Shape(const gks::XmlIndex& index,
                  const std::vector<QuerySpec>& pool,
                  const std::vector<uint32_t>& sent, uint32_t top_k,
                  size_t cache_capacity);

// ---- misc -----------------------------------------------------------------

std::string HostStamp(size_t threads_plus_connections, const std::string& fsync);
double PeakRssMb();
uint64_t FileBytes(const std::string& path);
uint64_t DirBytes(const std::string& path);
bool WriteFile(const std::string& path, std::string_view bytes);
bool ReadFile(const std::string& path, std::string* bytes);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
