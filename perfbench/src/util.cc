#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/json_writer.h"
#include "common/simd/kernels.h"
#include "server/client.h"

namespace perfbench {

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kOverloaded: return "overloaded";
    case Outcome::kDeadline: return "deadline";
    case Outcome::kTransport: return "transport";
    case Outcome::kInvalidJson: return "invalid_json";
    case Outcome::kError: return "error";
    case Outcome::kWrongAnswer: return "wrong_answer";
    case Outcome::kCount: break;
  }
  return "?";
}

std::string OpCounts::ToString() const {
  std::string out;
  for (size_t i = 0; i < by.size(); ++i) {
    if (!out.empty()) out += ' ';
    out += OutcomeName(static_cast<Outcome>(i));
    out += '=';
    out += std::to_string(by[i]);
  }
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- spans ------------------------------------------------------------------

namespace {
thread_local int64_t tls_current_span = -1;
}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

int64_t SpanLog::Open(std::string_view name, uint64_t request_id) {
  Record record;
  record.name = std::string(name);
  record.parent = tls_current_span;
  record.request_id = request_id;
  record.start_s = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  if (request_id == 0 && record.parent >= 0) {
    record.request_id = records_[record.parent].request_id;
  }
  records_.push_back(std::move(record));
  return static_cast<int64_t>(records_.size() - 1);
}

void SpanLog::Close(int64_t index) {
  double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  records_[index].end_s = now;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::map<std::string, SpanLog::Aggregate> SpanLog::Aggregates(
    std::string_view prefix, size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0 && r.end_s >= 0.0) {
      child_ms[r.parent] += (r.end_s - r.start_s) * 1e3;
    }
  }
  std::map<std::string, Aggregate> out;
  for (size_t i = from; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_s < 0.0 || r.name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    double ms = (r.end_s - r.start_s) * 1e3;
    Aggregate& agg = out[r.name];
    ++agg.count;
    agg.total_ms += ms;
    agg.self_ms += ms - child_ms[i];
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  double origin = records_.empty() ? 0.0 : records_.front().start_s;
  for (const Record& r : records_) {
    gks::JsonWriter json;
    json.BeginObject();
    json.Key("name").String(r.name);
    json.Key("start_us").Double((r.start_s - origin) * 1e6, 1);
    json.Key("end_us").Double((r.end_s - origin) * 1e6, 1);
    json.Key("parent").Int(r.parent);
    json.Key("request").UInt(r.request_id);
    json.EndObject();
    out += json.Take();
    out += '\n';
  }
  return WriteFile(path, out);
}

Span::Span(std::string_view name, uint64_t request_id) {
  SpanLog& log = SpanLog::Get();
  if (!log.enabled()) return;
  index_ = log.Open(name, request_id);
  saved_parent_ = tls_current_span;
  tls_current_span = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  SpanLog::Get().Close(index_);
  tls_current_span = saved_parent_;
}

// ---- closed loop ------------------------------------------------------------

namespace {

Outcome ClassifyError(const gks::JsonValue& reply) {
  const std::string& code =
      reply.Find("error") ? reply.Find("error")->GetString() : "";
  if (code == "overloaded") return Outcome::kOverloaded;
  if (code == "deadline_exceeded") return Outcome::kDeadline;
  return Outcome::kError;
}

}  // namespace

namespace {

// Lets the main thread pause every lane between ops.
struct LaneGate {
  std::mutex mu;
  std::condition_variable cv;
  bool paused = true;
  bool stopped = false;
  int window = 0;
  int busy = 0;  // lanes with an op in flight
  size_t dry = 0;  // lanes whose op source ran dry
  double window_start = 0.0;  // NowSeconds() when the window began
  double before_s = 0.0;      // loop time of the windows before it
  double LoopTime() const { return before_s + NowSeconds() - window_start; }
};

}  // namespace

LoopResult RunClosedLoop(int port, const std::vector<LoopLane>& lanes,
                         double seconds, bool trace, int windows,
                         bool probe_host) {
  LoopResult result;
  result.lanes.resize(lanes.size());
  result.windows.resize(std::max(1, windows));
  LaneGate gate;
  std::vector<std::thread> threads;
  for (size_t lane_index = 0; lane_index < lanes.size(); ++lane_index) {
    threads.emplace_back([&, lane_index] {
      const LoopLane& lane = lanes[lane_index];
      std::vector<OpRecord>& records = result.lanes[lane_index];
      gks::Result<gks::ServerConnection> conn =
          gks::ServerConnection::Open("127.0.0.1", port);
      for (uint64_t seq = 0;; ++seq) {
        OpRecord record;
        double wait_s = 0.0;
        {
          std::unique_lock<std::mutex> lock(gate.mu);
          gate.cv.wait(lock, [&] { return !gate.paused || gate.stopped; });
          if (gate.stopped) break;
          ++gate.busy;
          record.window = gate.window;
          if (lane.interval_s > 0.0) {
            wait_s = static_cast<double>(seq) * lane.interval_s - gate.LoopTime();
          }
        }
        // A paced lane sleeps until its op is due (at most one interval
        // while its lane counts as busy), or notes how late it runs.
        if (wait_s > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
        } else if (lane.interval_s > 0.0) {
          record.late_ms = -wait_s * 1e3;
        }
        std::string line = lane.make(seq);
        if (!line.empty()) {
          if (!conn.ok() || !conn->connected()) {
            conn = gks::ServerConnection::Open("127.0.0.1", port);
          }
          double t0 = NowSeconds() - record.late_ms / 1e3;
          gks::Result<std::string> raw = [&]() -> gks::Result<std::string> {
            std::optional<Span> span;
            if (trace) {
              span.emplace(lane.span_name, (lane_index << 40) | (seq + 1));
            }
            if (!conn.ok()) return conn.status();
            return conn->CallRaw(line);
          }();
          record.rtt_ms = (NowSeconds() - t0) * 1e3;
          if (!raw.ok()) {
            record.outcome = Outcome::kTransport;
            if (conn.ok()) conn->Close();
          } else {
            record.bytes = raw->size();
            gks::Result<gks::JsonValue> reply = gks::JsonValue::Parse(*raw);
            if (!reply.ok() || !reply->is_object()) {
              record.outcome = Outcome::kInvalidJson;
            } else if (!reply->Find("ok") || !reply->Find("ok")->GetBool()) {
              record.outcome = ClassifyError(*reply);
            } else {
              if (const gks::JsonValue* e = reply->Find("elapsed_ms")) {
                record.server_ms = e->GetDouble();
              }
              record.outcome = lane.check ? lane.check(seq, *reply, *raw)
                                          : Outcome::kOk;
            }
          }
          records.push_back(record);
        }
        {
          std::lock_guard<std::mutex> lock(gate.mu);
          --gate.busy;
        }
        gate.cv.notify_all();
        if (line.empty()) {
          // This lane's source ran dry; it waits for the loop to end.
          std::unique_lock<std::mutex> lock(gate.mu);
          ++gate.dry;
          gate.cv.notify_all();
          gate.cv.wait(lock, [&] { return gate.stopped; });
          break;
        }
      }
    });
  }

  if (probe_host) result.probes.push_back(HostSlowdown());
  const double window_s = seconds / static_cast<double>(result.windows.size());
  for (size_t w = 0; w < result.windows.size(); ++w) {
    LoopWindow& window = result.windows[w];
    {
      std::lock_guard<std::mutex> lock(gate.mu);
      gate.window = static_cast<int>(w);
      gate.window_start = NowSeconds();
      gate.before_s = result.elapsed_s;
      gate.paused = false;
    }
    gate.cv.notify_all();
    bool all_dry = false;
    {
      std::unique_lock<std::mutex> lock(gate.mu);
      all_dry = gate.cv.wait_for(
          lock, std::chrono::duration<double>(window_s),
          [&] { return gate.dry == lanes.size(); });
      gate.paused = true;
      gate.cv.wait(lock, [&] { return gate.busy == 0; });
      window.seconds = NowSeconds() - gate.window_start;
    }
    if (probe_host) {
      result.probes.push_back(HostSlowdown());
      window.host_slowdown = (result.probes[w] + result.probes[w + 1]) / 2.0;
    }
    result.elapsed_s += window.seconds;
    if (all_dry) {
      result.windows.resize(w + 1);
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.stopped = true;
  }
  gate.cv.notify_all();
  for (std::thread& t : threads) t.join();
  return result;
}

bool SendAll(int port, const std::vector<std::string>& lines,
             std::string* error) {
  gks::Result<gks::ServerConnection> conn =
      gks::ServerConnection::Open("127.0.0.1", port);
  if (!conn.ok()) {
    *error = conn.status().ToString();
    return false;
  }
  for (const std::string& line : lines) {
    gks::Result<gks::JsonValue> reply = conn->Call(line);
    if (!reply.ok() || !reply->Find("ok") || !reply->Find("ok")->GetBool()) {
      *error = "request failed: " + line;
      return false;
    }
  }
  return true;
}

std::string StripVolatile(std::string line, bool strip_plan) {
  for (std::string_view key : {"\"elapsed_ms\":", "\"epoch\":", "\"plan\":"}) {
    if (key == "\"plan\":" && !strip_plan) continue;
    size_t at = line.find(key);
    if (at == std::string::npos) continue;
    size_t end = at + key.size();
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    if (end < line.size() && line[end] == ',') ++end;
    line.erase(at, end - at);
  }
  return line;
}

namespace {

// Fixed inputs of the host probe, made once.
struct ProbeInputs {
  std::vector<uint32_t> values;  // 256 Ki pseudo-random values to sort
  std::vector<uint32_t> ring;    // one 2 Mi-entry cycle (8 MB) to chase
  std::vector<std::string> keys;
  ProbeInputs() {
    uint64_t x = 88172645463325252ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    values.resize(1 << 18);
    for (uint32_t& v : values) v = static_cast<uint32_t>(next());
    ring.resize(1 << 21);
    for (uint32_t i = 0; i < ring.size(); ++i) ring[i] = i;
    for (uint32_t i = ring.size() - 1; i > 0; --i) {  // Sattolo: one cycle
      std::swap(ring[i], ring[next() % i]);
    }
    for (int i = 0; i < (1 << 15); ++i) {
      keys.push_back("key-" + std::to_string(next() % 50000));
    }
  }
};

double ProbePass(const ProbeInputs& in, std::vector<uint32_t>* scratch) {
  double t0 = NowSeconds();
  scratch->assign(in.values.begin(), in.values.end());
  std::sort(scratch->begin(), scratch->end());
  uint32_t at = 0;
  for (int i = 0; i < (1 << 19); ++i) at = in.ring[at];
  std::unordered_map<std::string, uint32_t> counts;
  for (const std::string& key : in.keys) ++counts[key];
  volatile uint64_t sink = (*scratch)[at % scratch->size()] + counts.size();
  (void)sink;
  return NowSeconds() - t0;
}

}  // namespace

double HostProbeSeconds() {
  static const ProbeInputs inputs;
  static std::vector<uint32_t> scratch;
  std::vector<double> passes;
  for (int i = 0; i < 5; ++i) passes.push_back(ProbePass(inputs, &scratch));
  // The fastest pass: the host's slowness shows in every pass, while a
  // burst of the engine's own background work (an RT flush or merge still
  // running in the pause) shows only in some.
  return *std::min_element(passes.begin(), passes.end());
}

double HostSlowdown() { return HostProbeSeconds() / kProbeRefS; }

// ---- misc -------------------------------------------------------------------

std::string HostStamp(size_t threads_plus_connections,
                      const std::string& fsync) {
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "host: nproc=%ld simd=%s compiler=\"%s\" build=%s fsync=%s "
                "threads+connections=%zu",
                nproc, gks::simd::Active().name, __VERSION__,
                PERFBENCH_BUILD_TYPE, fsync.c_str(), threads_plus_connections);
  std::string out = buf;
  if (static_cast<long>(threads_plus_connections) > nproc) {
    out += "\nWARNING: server threads + client connections (" +
           std::to_string(threads_plus_connections) + ") exceed nproc (" +
           std::to_string(nproc) +
           "); throughput and tail latency measure the host limit";
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

uint64_t DirBytes(const std::string& path) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

bool WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool ReadFile(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  bytes->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  return !in.bad();
}

}  // namespace perfbench
