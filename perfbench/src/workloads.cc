// The workloads. Each builds its inputs from the seed, sets up the
// deployment several times (setup_s is the median), runs a closed loop
// for the requested seconds, checks its answers, and fills the end-to-end
// and per-layer reports. See perfbench/README.md for why each exists.
#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "core/segment_search.h"
#include "data/dblp_gen.h"
#include "data/mondial_gen.h"
#include "data/nasa_gen.h"
#include "data/protein_gen.h"
#include "data/sigmod_gen.h"
#include "data/treebank_gen.h"
#include "decompose.h"
#include "index/index_builder.h"
#include "index/rt_index.h"
#include "index/serialization.h"
#include "index/shard.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "xml/sax_parser.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Docs = std::vector<std::pair<std::string, std::string>>;  // name, xml

constexpr int kSetupRepeats = 5;
constexpr size_t kTop = 10;
constexpr size_t kCacheCapacity = 1024;  // ServerConfig default
constexpr double kTraceBudgetS = 3.0;    // decomposition time per traced run
// Distinct queries drawn per second of loop time for the streams that send
// each query once: several times the rate dblp_di and rt_ingest reach on a
// 4-core host, so a much faster engine still finds the stream long enough.
// A run whose stream runs out fails (CheckStreamLasted).
constexpr double kQueriesPerSecond = 1000.0;
constexpr size_t kMinPool = 6000;
// Terms above this share of all postings are element names (author, year,
// title, ... in DBLP) that match every element of their kind: one query on
// them returns tens of thousands of nodes, and a few such queries would set
// every figure of a run. The DBLP-based streams leave them out.
constexpr double kMaxDfShare = 0.02;

using Layers = Values;

// ---- registry deltas ----------------------------------------------------------

// Reads the engine's own process-wide counters and histograms (public
// MetricsRegistry API) so a loop's share can be taken as a difference.
struct RegistryMark {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, double>> histograms;
};

const std::vector<std::string> kCounters = {
    "gks.search.cache.hits_total",        "gks.search.cache.misses_total",
    "gks.server.shard_cache_hits_total",  "gks.server.shard_cache_misses_total",
    "gks.coord.retries_total",            "gks.rt.wal.bytes_total",
    "gks.rt.flush.bytes_total",           "gks.rt.merge.bytes_total",
};
const std::vector<std::string> kHistograms = {
    "gks.rt.flush.latency_ms", "gks.rt.merge.latency_ms",
    "gks.coord.fanout_ms",     "gks.coord.merge_ms",
};

RegistryMark Mark() {
  gks::MetricsRegistry& registry = gks::MetricsRegistry::Global();
  RegistryMark mark;
  for (const std::string& name : kCounters) {
    mark.counters[name] = registry.GetCounter(name)->value();
  }
  for (const std::string& name : kHistograms) {
    gks::Histogram* h = registry.GetHistogram(name);
    mark.histograms[name] = {h->count(), h->sum()};
  }
  return mark;
}

double CounterDelta(const RegistryMark& a, const RegistryMark& b,
                    const std::string& name) {
  return static_cast<double>(b.counters.at(name) - a.counters.at(name));
}
double HistCount(const RegistryMark& a, const RegistryMark& b,
                 const std::string& name) {
  return static_cast<double>(b.histograms.at(name).first -
                             a.histograms.at(name).first);
}
double HistMean(const RegistryMark& a, const RegistryMark& b,
                const std::string& name) {
  double n = HistCount(a, b, name);
  return n > 0 ? (b.histograms.at(name).second - a.histograms.at(name).second) / n
               : 0.0;
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- building blocks -----------------------------------------------------------

struct BuiltIndex {
  uint64_t xml_bytes = 0;
  uint64_t file_bytes = 0;
  double build_s = 0.0;
  double save_ms = 0.0;
};

bool BuildAndSave(const Docs& docs, const std::string& path, BuiltIndex* out,
                  std::string* error) {
  Span span("index.build_save");
  gks::WallTimer build_timer;
  gks::IndexBuilder builder;
  out->xml_bytes = 0;
  for (const auto& [name, xml] : docs) {
    gks::Status st = builder.AddDocument(xml, name);
    if (!st.ok()) {
      *error = "index " + name + ": " + st.ToString();
      return false;
    }
    out->xml_bytes += xml.size();
  }
  gks::Result<gks::XmlIndex> index = std::move(builder).Finalize();
  if (!index.ok()) {
    *error = index.status().ToString();
    return false;
  }
  out->build_s = build_timer.ElapsedSeconds();
  gks::WallTimer save_timer;
  gks::Status st = gks::SaveIndex(*index, path);
  if (!st.ok()) {
    *error = st.ToString();
    return false;
  }
  out->save_ms = save_timer.ElapsedMillis();
  out->file_bytes = FileBytes(path);
  return true;
}

std::unique_ptr<gks::GksServer> StartServer(const gks::ServerConfig& config,
                                            const std::string& path,
                                            std::string* error) {
  Span span("server.start");
  auto server = std::make_unique<gks::GksServer>(config, path);
  gks::Status st = server->Start();
  if (!st.ok()) {
    *error = "server start: " + st.ToString();
    return nullptr;
  }
  return server;
}

void StopServer(std::unique_ptr<gks::GksServer>* server) {
  if (*server == nullptr) return;
  (*server)->RequestShutdown();
  (*server)->Wait();
  server->reset();
}

double SaxParseMbPerS(const Docs& docs) {
  gks::xml::SaxHandler handler;  // no-op callbacks: the parse alone
  uint64_t bytes = 0;
  gks::WallTimer timer;
  do {
    for (const auto& doc : docs) {
      Span span("xml.parse");
      if (!gks::xml::ParseXml(doc.second, &handler).ok()) return 0.0;
      bytes += doc.second.size();
    }
  } while (timer.ElapsedSeconds() < 0.2);
  return static_cast<double>(bytes) / 1e6 / timer.ElapsedSeconds();
}

gks::SearchOptions OptionsFor(const QuerySpec& spec, uint32_t top_k,
                              bool refine) {
  gks::SearchOptions options;
  options.s = spec.s;
  options.max_results = kTop;
  options.top_k = top_k;
  options.suggest_refinements = refine;
  return options;
}

// Warm-up queries never share a cache key with the measured stream: they
// ask for one result fewer, so they fault pages and fill allocator pools
// without handing the loop free cache hits.
std::vector<std::string> WarmupLines(const std::vector<QuerySpec>& specs,
                                     uint32_t top_k, bool refine) {
  std::vector<std::string> lines;
  for (const QuerySpec& spec : specs) {
    lines.push_back(QueryLine(spec, kTop - 1, top_k, refine));
  }
  return lines;
}

// Checks every reply's shape cheaply; `keep` captures raw replies for the
// gate. Ranks must be non-increasing and the node count within `top`.
Outcome CheckQueryReply(const gks::JsonValue& reply) {
  const gks::JsonValue* nodes = reply.Find("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->size() > kTop) {
    return Outcome::kWrongAnswer;
  }
  double last = INFINITY;
  for (const gks::JsonValue& node : nodes->items()) {
    double rank = node.Find("rank") ? node.Find("rank")->GetDouble() : -1.0;
    if (rank > last + 1e-9) return Outcome::kWrongAnswer;
    last = rank;
  }
  return Outcome::kOk;
}

// Captured raw replies for the correctness gate, per lane.
struct Captured {
  uint32_t pool_index = 0;
  std::string line;
  std::string reply;
};

// A query lane over `stream` (pool indices). With `shared_next`, lanes
// take stream positions from one counter (each query sent once overall).
struct QueryLaneState {
  std::vector<uint32_t> sent;  // pool index per op, in send order
  std::vector<Captured> captured;
};

LoopLane MakeQueryLane(const std::vector<QuerySpec>& pool,
                       const std::vector<uint32_t>& stream,
                       std::atomic<size_t>* next, uint32_t top_k, bool refine,
                       size_t capture_every, size_t capture_max,
                       QueryLaneState* state) {
  LoopLane lane;
  lane.span_name = "client.query";
  lane.make = [&pool, &stream, next, top_k, refine, state](uint64_t) {
    size_t at = next->fetch_add(1);
    if (at >= stream.size()) return std::string();
    uint32_t q = stream[at];
    state->sent.push_back(q);
    return QueryLine(pool[q], kTop, top_k, refine);
  };
  lane.check = [&pool, top_k, refine, capture_every, capture_max, state](
                   uint64_t seq, const gks::JsonValue& reply,
                   const std::string& raw) {
    Outcome outcome = CheckQueryReply(reply);
    if (outcome == Outcome::kOk && seq % capture_every == 0 &&
        state->captured.size() < capture_max) {
      uint32_t q = state->sent[seq];
      state->captured.push_back(
          {q, QueryLine(pool[q], kTop, top_k, refine), raw});
    }
    return outcome;
  };
  return lane;
}

struct LoopSummary {
  std::vector<double> query_ms;
  std::vector<double> overhead_ms;  // round trip minus the reply's elapsed_ms
  std::vector<double> server_ms;
  double bytes = 0;
  uint64_t ok_queries = 0;
  uint64_t overloaded = 0;
  uint64_t queries = 0;
};

void SummarizeLane(const std::vector<OpRecord>& records, OpCounts* counts,
                   LoopSummary* summary) {
  for (const OpRecord& r : records) {
    counts->Add(r.outcome);
    ++summary->queries;
    if (r.outcome == Outcome::kOverloaded) ++summary->overloaded;
    if (r.outcome != Outcome::kOk) continue;
    ++summary->ok_queries;
    summary->query_ms.push_back(r.rtt_ms);
    summary->server_ms.push_back(r.server_ms);
    summary->overhead_ms.push_back(r.rtt_ms - r.server_ms);
    summary->bytes += static_cast<double>(r.bytes);
  }
}

// The loop is cut into eight equal windows with a host probe before the
// first and after each one (RunClosedLoop). Throughput and latency are
// taken in reference time: a window's seconds are divided by the host
// slowdown measured around it, and so are the latencies of the queries
// sent in it. qps is taken over the whole run; each latency percentile is
// the median of the windows' own, so a window that met an RT merge or a
// burst of host noise does not set the tail. A slow host, for a window or
// for the whole run, then does not set the figures.
constexpr int kWindows = 8;

// Loop time in reference seconds.
double ReferenceSeconds(const LoopResult& loop) {
  double seconds = 0.0;
  for (const LoopWindow& w : loop.windows) seconds += w.seconds / w.host_slowdown;
  return seconds;
}

void AddQueryEndToEnd(const LoopResult& loop,
                      const std::vector<size_t>& query_lanes,
                      const LoopSummary& queries, RunOutput* out) {
  // Latencies in reference time, per window.
  std::vector<std::vector<double>> latency_ms(loop.windows.size());
  size_t completed = 0;
  for (size_t lane : query_lanes) {
    for (const OpRecord& r : loop.lanes[lane]) {
      if (r.outcome != Outcome::kOk) continue;
      latency_ms[r.window].push_back(r.rtt_ms /
                                     loop.windows[r.window].host_slowdown);
      ++completed;
    }
  }
  std::vector<double> p50s, p95s;
  for (const std::vector<double>& window : latency_ms) {
    if (window.empty()) continue;
    p50s.push_back(Percentile(window, 0.5));
    p95s.push_back(Percentile(window, 0.95));
  }
  out->end_to_end["qps"] =
      Ratio(static_cast<double>(completed), ReferenceSeconds(loop));
  out->end_to_end["query_p50_ms"] = Median(p50s);
  out->end_to_end["query_p95_ms"] = Median(p95s);
  out->end_to_end["peak_rss_mb"] = PeakRssMb();

  std::string rates, probes;
  for (size_t w = 0; w < loop.windows.size(); ++w) {
    rates += " " + std::to_string(static_cast<int>(
                       static_cast<double>(latency_ms[w].size()) /
                       loop.windows[w].seconds));
  }
  for (double p : loop.probes) probes += " " + std::to_string(p).substr(0, 5);
  char buf[300];
  std::snprintf(buf, sizeof(buf),
                "query samples: %zu; whole run as measured: qps %.2f p50 "
                "%.4f ms p95 %.4f ms",
                queries.query_ms.size(),
                static_cast<double>(queries.ok_queries) / loop.elapsed_s,
                Percentile(queries.query_ms, 0.5),
                Percentile(queries.query_ms, 0.95));
  out->lines.push_back(buf);
  out->lines.push_back("host slowdown (probe / " + std::to_string(kProbeRefS) +
                       " s) before the first window and after each:" + probes);
  out->lines.push_back("queries/s by window, as measured:" + rates);
}

void AddServerLayers(const LoopSummary& s, Layers* layers) {
  (*layers)["server.overhead_ms"] = Mean(s.overhead_ms);
  (*layers)["server.response_bytes"] =
      Ratio(s.bytes, static_cast<double>(s.ok_queries));
  (*layers)["server.shed_ratio"] =
      Ratio(static_cast<double>(s.overloaded), static_cast<double>(s.queries));
}

// Runs the decomposed pipeline on `sample` against `index` and fills the
// core.* layer metrics; every decomposed answer must equal
// GksSearcher::Search with the same options, and a mismatch counts as a
// wrong answer. Each query also runs through the decomposition once with
// the span log off: the median per-query difference is the tracing
// overhead, on the same inputs.
void TraceCore(const gks::XmlIndex& index, const std::vector<QuerySpec>& sample,
               uint32_t top_k, bool refine, double budget_s, Layers* layers,
               RunOutput* out) {
  const size_t first_span = SpanLog::Get().size();
  gks::GksSearcher searcher(&index);
  DecomposeCounters counters;
  DecomposeCounters untraced_counters;
  std::vector<double> search_ms, overhead_ms;
  size_t mismatches = 0;
  const double stop_at = NowSeconds() + budget_s;
  uint64_t request_id = 1ull << 62;
  for (const QuerySpec& spec : sample) {
    if (!search_ms.empty() && NowSeconds() > stop_at) break;
    gks::Result<gks::Query> query = gks::Query::Parse(spec.text);
    if (!query.ok()) continue;
    gks::SearchOptions options = OptionsFor(spec, top_k, refine);
    (void)searcher.Search(*query, options);  // warm this query's pages
    // Alternate which of the two runs goes first, so neither always gets
    // the warmer caches.
    const bool untraced_first = search_ms.size() % 2 == 1;
    double untraced_ms = 0.0;
    auto run_untraced = [&] {
      SpanLog::Get().set_enabled(false);
      gks::WallTimer timer;
      (void)DecomposedSearch(index, *query, options, 0, &untraced_counters);
      untraced_ms = timer.ElapsedMillis();
      SpanLog::Get().set_enabled(true);
    };
    if (untraced_first) run_untraced();
    gks::WallTimer traced_timer;
    gks::SearchResponse decomposed =
        DecomposedSearch(index, *query, options, ++request_id, &counters);
    const double traced_ms = traced_timer.ElapsedMillis();
    if (!untraced_first) run_untraced();
    overhead_ms.push_back(traced_ms - untraced_ms);
    gks::WallTimer timer;
    gks::Result<gks::SearchResponse> expected = searcher.Search(*query, options);
    search_ms.push_back(timer.ElapsedMillis());
    std::string why;
    if (!expected.ok() || !SameAnswer(*expected, decomposed, &why)) {
      ++mismatches;
      out->lines.push_back("GATE decomposition mismatch on '" + spec.text +
                           "': " + why);
    }
  }
  out->counts.Add(Outcome::kWrongAnswer, mismatches);
  if (mismatches > 0) out->correct = false;
  const double n = static_cast<double>(std::max<uint64_t>(counters.queries, 1));
  std::map<std::string, SpanLog::Aggregate> agg =
      SpanLog::Get().Aggregates("core.", first_span);
  auto per_query = [&](const char* name) { return agg[name].total_ms / n; };
  Layers& L = *layers;
  L["core.plan.us"] = per_query("core.plan") * 1e3;
  L["core.plan.probe_share"] = counters.probe_planned / n;
  L["core.plan.topk_engaged_share"] = counters.topk_engaged / n;
  L["core.merge.ms"] = per_query("core.merge");
  L["core.merge.sl_postings"] = counters.sl_postings / n;
  L["core.window.ms"] = per_query("core.window");
  L["core.window.candidates"] = counters.candidates / n;
  L["core.probe.ms"] = per_query("core.probe");
  L["core.topk.ms"] = per_query("core.topk");
  L["core.topk.docs_skipped_ratio"] =
      Ratio(counters.topk_docs_skipped, counters.topk_docs_total);
  L["core.topk.blocks_skipped"] = counters.topk_blocks_skipped / n;
  L["core.lce.ms"] = per_query("core.lce");
  L["core.lce.nodes_per_candidate"] =
      Ratio(counters.lce_nodes, counters.lce_candidates);
  L["core.di.ms"] = per_query("core.di");
  L["core.refine.ms"] = per_query("core.refine");
  L["core.search.ms"] = Mean(search_ms);
  double stages = 0.0;
  for (const char* stage : {"core.plan", "core.merge", "core.window",
                            "core.probe", "core.topk", "core.lce", "core.di",
                            "core.refine"}) {
    stages += per_query(stage);
  }
  L["core.search.unattributed_ms"] = Mean(search_ms) - stages;
  L["trace.overhead_ms"] = Median(overhead_ms);

  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "decomposed %llu queries, %zu mismatches vs GksSearcher::Search",
                static_cast<unsigned long long>(counters.queries), mismatches);
  out->lines.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "tracing overhead: decomposed query traced minus untraced, "
                "median %.4f ms",
                Median(overhead_ms));
  out->lines.push_back(buf);
  out->lines.push_back("layer self time per decomposed query:");
  for (const auto& [name, a] : agg) {
    std::snprintf(buf, sizeof(buf), "  %-22s n=%-5llu total %9.3f ms  self %9.3f ms",
                  name.c_str(), static_cast<unsigned long long>(a.count),
                  a.total_ms / n, a.self_ms / n);
    out->lines.push_back(buf);
  }
}

size_t OnceOnlyPoolSize(const Args& args) {
  return std::max(kMinPool, static_cast<size_t>(
                                std::ceil(args.seconds * kQueriesPerSecond)));
}

// A stream that runs out before time is up leaves the loop's last windows
// without queries, and its rates and percentiles would not measure the
// engine: such a run fails.
void CheckStreamLasted(size_t next, size_t length, RunOutput* out) {
  if (next < length) return;
  out->correct = false;
  out->lines.push_back("FAILED: the query stream (" + std::to_string(length) +
                       " queries) ran out before time was up; raise "
                       "kQueriesPerSecond in perfbench/src/workloads.cc");
}

// setup_s is the median over the set-ups of each one's time scaled by the
// host slowdown measured right after it, like the loop's figures.
void AddSetup(const std::vector<double>& setup_s,
              const std::vector<double>& slowdown, RunOutput* out) {
  std::vector<double> scaled;
  std::string line = "setup runs (s, as measured / host slowdown):";
  for (size_t r = 0; r < setup_s.size(); ++r) {
    scaled.push_back(setup_s[r] / slowdown[r]);
    line += " " + std::to_string(setup_s[r]) + "/" +
            std::to_string(slowdown[r]).substr(0, 5);
  }
  out->end_to_end["setup_s"] = Median(scaled);
  out->lines.push_back(line);
}

std::string WorkPath(const Args& args, const std::string& name) {
  return (fs::path(args.work_dir) / name).string();
}

// " at byte N: <expected excerpt> vs <actual excerpt>", volatile fields
// stripped, for a gate failure message.
std::string FirstDifference(const std::string& expected,
                            const std::string& actual) {
  std::string a = StripVolatile(expected, true);
  std::string b = StripVolatile(actual, true);
  size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  size_t from = at > 40 ? at - 40 : 0;
  return " at byte " + std::to_string(at) + ": " + a.substr(from, 120) +
         " vs " + b.substr(from, 120);
}

// Compares captured server replies with what the in-process searcher over
// `index` serializes for the same request (ids, ranks, DI, refinements,
// describe text), ignoring elapsed_ms and epoch.
size_t CompareWithInProcess(const gks::XmlIndex& index,
                            const std::vector<Captured>& captured,
                            RunOutput* out) {
  gks::GksSearcher searcher(&index);
  size_t bad = 0;
  for (const Captured& c : captured) {
    gks::Result<gks::WireRequest> request = gks::ParseWireRequest(c.line);
    if (!request.ok()) {
      ++bad;
      continue;
    }
    gks::Result<gks::SearchResponse> response =
        searcher.Search(request->query, request->options);
    if (!response.ok()) {
      ++bad;
      continue;
    }
    std::string expected =
        gks::WireResponseBuilder::Query(*request, *response, index, 0, 0.0);
    if (StripVolatile(expected) != StripVolatile(c.reply)) {
      ++bad;
      out->lines.push_back("GATE server reply differs from in-process for " +
                           c.line + FirstDifference(expected, c.reply));
    }
  }
  return bad;
}

std::vector<Captured> AllCaptured(const std::vector<QueryLaneState>& states) {
  std::vector<Captured> all;
  for (const QueryLaneState& s : states) {
    all.insert(all.end(), s.captured.begin(), s.captured.end());
  }
  return all;
}

std::vector<uint32_t> AllSent(const std::vector<QueryLaneState>& states) {
  std::vector<uint32_t> all;
  for (const QueryLaneState& s : states) {
    all.insert(all.end(), s.sent.begin(), s.sent.end());
  }
  return all;
}

// Distinct queries of the stream in first-sent order, for decomposition.
std::vector<QuerySpec> SampleSent(const std::vector<QuerySpec>& pool,
                                  const std::vector<uint32_t>& sent,
                                  size_t max) {
  std::vector<QuerySpec> out;
  std::vector<bool> seen(pool.size(), false);
  for (uint32_t q : sent) {
    if (out.size() >= max) break;
    if (seen[q]) continue;
    seen[q] = true;
    out.push_back(pool[q]);
  }
  return out;
}

void ReportShape(const ShapeReport& shape, const ShapeBounds& bounds,
                 RunOutput* out) {
  out->lines.push_back(shape.ToString());
  std::vector<std::string> misses = CheckShape(shape, bounds);
  if (misses.empty()) {
    out->lines.push_back("shape bounds: ok");
    return;
  }
  for (const std::string& miss : misses) {
    out->lines.push_back("WARNING: shape bound missed: " + miss);
  }
}

void AddIndexLayers(const std::vector<BuiltIndex>& builds, double load_ms,
                    Layers* layers) {
  std::vector<double> build_s, save_ms;
  for (const BuiltIndex& b : builds) {
    build_s.push_back(b.build_s);
    save_ms.push_back(b.save_ms);
  }
  (*layers)["index.build_s"] = Median(build_s);
  (*layers)["index.save_ms"] = Median(save_ms);
  (*layers)["index.load_ms"] = load_ms;
  (*layers)["index.file_bytes"] = static_cast<double>(builds.back().file_bytes);
}

// Loads `path` the way the workload's server does and times it.
std::unique_ptr<gks::XmlIndex> LoadForGate(const std::string& path, bool mmap,
                                           double* load_ms,
                                           std::string* error) {
  Span span("index.load");
  gks::WallTimer timer;
  gks::Result<gks::XmlIndex> index =
      mmap ? gks::LoadIndexMapped(path) : gks::LoadIndex(path);
  *load_ms = timer.ElapsedMillis();
  if (!index.ok()) {
    *error = index.status().ToString();
    return nullptr;
  }
  return std::make_unique<gks::XmlIndex>(std::move(*index));
}

// ---- shard and coordinator layers ----------------------------------------------

std::string ShardRequestLine(const QuerySpec& spec) {
  gks::JsonWriter json;
  json.BeginObject();
  json.Key("query").String(spec.text);
  json.Key("s").UInt(spec.s);
  json.Key("shard").Bool(true);
  json.Key("di_contrib").Bool(true);
  json.EndObject();
  return json.Take();
}

// Shard and coordinator layers, measured in hybrid_topk's traced run:
// splits `docs` into two document-range shards behind one-thread workers
// and a coordinator with a one-thread pool, times worker partials for
// `fresh` queries (the first call misses the wire cache, the repeat hits
// it), drives the coordinator for a few seconds with `stream` over `pool`
// (full evaluation, DI and refinements on), and checks sampled coordinator
// answers against a single-index server over the same documents.
bool MeasureShardLayers(const Args& args, const Docs& docs,
                        const std::vector<QuerySpec>& pool,
                        const std::vector<uint32_t>& stream,
                        const std::vector<QuerySpec>& fresh, Layers* layers,
                        RunOutput* out, std::string* error) {
  constexpr size_t kShards = 2;
  constexpr double kLoopS = 3.0;
  Span span("shard.layers");
  const std::string dir = WorkPath(args, "shard");
  fs::create_directories(dir + "/docs");
  // Document names are the file paths, as SplitIntoShards names them, so
  // the single-index oracle built from `named` serves the same names.
  Docs named;
  std::vector<std::string> files;
  for (const auto& [name, xml] : docs) {
    files.push_back(dir + "/docs/" + name);
    named.push_back({files.back(), xml});
    if (!WriteFile(files.back(), xml)) {
      *error = "cannot write " + files.back();
      return false;
    }
  }
  gks::Result<gks::ShardManifest> manifest =
      gks::SplitIntoShards(files, kShards, dir + "/shards");
  if (!manifest.ok()) {
    *error = manifest.status().ToString();
    return false;
  }
  std::vector<std::unique_ptr<gks::GksServer>> workers;
  std::string topology;
  for (const gks::ShardSpec& shard : manifest->shards) {
    gks::ServerConfig config;
    config.threads = 1;
    config.doc_base = shard.doc_base;
    workers.push_back(
        StartServer(config, dir + "/shards/" + shard.file, error));
    if (workers.back() == nullptr) return false;
    if (!topology.empty()) topology += ",";
    topology += "127.0.0.1:" + std::to_string(workers.back()->port());
  }
  gks::ServerConfig coord_config;
  coord_config.threads = 1;
  coord_config.coord_shards = topology;
  std::unique_ptr<gks::GksServer> coordinator =
      StartServer(coord_config, "", error);
  if (coordinator == nullptr) return false;

  std::vector<double> miss_ms, hit_ms, parse_ms, bytes;
  {
    gks::Result<gks::ServerConnection> conn =
        gks::ServerConnection::Open("127.0.0.1", workers[0]->port());
    for (const QuerySpec& spec : fresh) {
      if (!conn.ok()) break;
      std::string line = ShardRequestLine(spec);
      double t0 = NowSeconds();
      gks::Result<std::string> miss = [&] {
        Span call("shard.partial.miss");
        return conn->CallRaw(line);
      }();
      double t1 = NowSeconds();
      gks::Result<std::string> hit = [&] {
        Span call("shard.partial.hit");
        return conn->CallRaw(line);
      }();
      double t2 = NowSeconds();
      if (!miss.ok() || !hit.ok()) continue;
      miss_ms.push_back((t1 - t0) * 1e3);
      hit_ms.push_back((t2 - t1) * 1e3);
      bytes.push_back(static_cast<double>(miss->size()));
      gks::WallTimer timer;
      {
        Span call("coord.partial_parse");
        (void)gks::JsonValue::Parse(*miss);
      }
      parse_ms.push_back(timer.ElapsedMillis());
    }
  }
  (*layers)["shard.partial_miss_ms"] = Mean(miss_ms);
  (*layers)["shard.partial_hit_ms"] = Mean(hit_ms);
  (*layers)["shard.partial_bytes"] = Mean(bytes);
  (*layers)["coord.partial_parse_ms"] = Mean(parse_ms);

  std::atomic<size_t> next{0};
  QueryLaneState state;
  std::vector<LoopLane> lanes = {
      MakeQueryLane(pool, stream, &next, 0, true, 11, 8, &state)};
  RegistryMark before = Mark();
  LoopResult loop = RunClosedLoop(coordinator->port(), lanes, kLoopS, false);
  RegistryMark after = Mark();
  LoopSummary summary;
  SummarizeLane(loop.lanes[0], &out->counts, &summary);
  (*layers)["shard.wire_cache_hit_ratio"] = Ratio(
      CounterDelta(before, after, "gks.server.shard_cache_hits_total"),
      CounterDelta(before, after, "gks.server.shard_cache_hits_total") +
          CounterDelta(before, after, "gks.server.shard_cache_misses_total"));
  (*layers)["coord.execute_ms"] = Mean(summary.server_ms);
  (*layers)["coord.merge_ms"] =
      Mean(summary.server_ms) - HistMean(before, after, "gks.coord.fanout_ms");
  (*layers)["coord.retries"] =
      CounterDelta(before, after, "gks.coord.retries_total");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "coordinator loop: %llu queries in %.1f s, p50 %.4f ms",
                static_cast<unsigned long long>(summary.ok_queries),
                loop.elapsed_s, Percentile(summary.query_ms, 0.5));
  out->lines.push_back(buf);

  // Gate: coordinator answers equal one index over the same documents.
  BuiltIndex oracle_build;
  const std::string oracle_path = dir + "/oracle.gksidx";
  if (!BuildAndSave(named, oracle_path, &oracle_build, error)) return false;
  gks::ServerConfig oracle_config;
  oracle_config.threads = 1;
  std::unique_ptr<gks::GksServer> oracle =
      StartServer(oracle_config, oracle_path, error);
  if (oracle == nullptr) return false;
  size_t bad = 0;
  {
    gks::Result<gks::ServerConnection> conn =
        gks::ServerConnection::Open("127.0.0.1", oracle->port());
    for (const Captured& c : state.captured) {
      gks::Result<std::string> expected =
          conn.ok() ? conn->CallRaw(c.line)
                    : gks::Result<std::string>(conn.status());
      // Shards plan on their own statistics, so the plan name may differ
      // from the single index's; the answer may not.
      if (!expected.ok() || StripVolatile(*expected, true) !=
                                StripVolatile(c.reply, true)) {
        ++bad;
        out->lines.push_back(
            "GATE coordinator answer differs from the single-index server "
            "for " + c.line +
            (expected.ok() ? FirstDifference(*expected, c.reply) : ""));
      }
    }
  }
  StopServer(&oracle);
  StopServer(&coordinator);
  for (auto& worker : workers) StopServer(&worker);
  out->counts.Add(Outcome::kWrongAnswer, bad);
  if (bad > 0 || state.captured.empty()) out->correct = false;
  out->lines.push_back("gate: " + std::to_string(state.captured.size()) +
                       " coordinator answers checked against a single-index "
                       "server, " + std::to_string(bad) + " wrong");
  return true;
}

// ---- dblp_di and hybrid_topk: one index behind one server ------------------------

struct SingleIndexSpec {
  std::string name;
  std::function<Docs(uint32_t seed)> corpus;
  bool mmap = false;
  uint32_t top_k = 0;
  bool refine = false;
  size_t pool_size = 0;
  bool zipf = false;  // Zipf stream over the pool; else each query once
  std::array<double, 3> mix{};
  double s_all_share = 0.0;
  double df_power = 0.5;
  double max_df_share = 1.0;
  size_t warmup = 0;
  size_t gate_sample = 0;
  size_t trace_sample = 0;
  bool topk_gate = false;  // also check top-k == full evaluation cut at k
  bool shard_layers = false;  // traced run also measures shard.* / coord.*
  size_t cache_fill = 0;      // untimed stream prefix before the loop
  bool hybrid_phase = false;  // traced run also runs a short hybrid_topk
  int setup_repeats = kSetupRepeats;
  ShapeBounds shape;
};

bool RunSingleIndex(const SingleIndexSpec& spec, const Args& args,
                    RunOutput* out, std::string* error);
SingleIndexSpec HybridSpec();

// Layers dblp_di's own queries never reach, taken from the hybrid phase.
bool FromHybridPhase(const std::string& name) {
  static const std::vector<std::string> kNames = {
      "core.plan.probe_share", "core.plan.topk_engaged_share",
      "core.probe.ms",         "core.topk.ms",
      "core.topk.docs_skipped_ratio", "core.topk.blocks_skipped",
      "core.cache.hit_ratio"};
  return name.rfind("shard.", 0) == 0 || name.rfind("coord.", 0) == 0 ||
         std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

// dblp_di's traced run also runs a short traced hybrid_topk (its own
// set-up, cache fill, loop, gates, decomposition and shard phase) and takes
// the probe, top-k, result-cache, shard and coordinator layers from it.
bool RunHybridPhase(const Args& args, Layers* layers, RunOutput* out,
                    std::string* error) {
  constexpr double kPhaseS = 5.0;
  Span span("hybrid.phase");
  Args sub_args = args;
  sub_args.seconds = kPhaseS;
  sub_args.work_dir = WorkPath(args, "hybrid");
  fs::create_directories(sub_args.work_dir);
  RunOutput sub;
  SingleIndexSpec spec = HybridSpec();
  spec.setup_repeats = 1;  // the phase reports layers only, not setup_s
  if (!RunSingleIndex(spec, sub_args, &sub, error)) return false;
  for (const auto& [name, value] : sub.layers) {
    if (FromHybridPhase(name)) (*layers)[name] = value;
  }
  out->counts.Merge(sub.counts);
  if (!sub.correct) out->correct = false;
  for (const std::string& line : sub.lines) {
    out->lines.push_back("  hybrid phase: " + line);
  }
  return true;
}

bool RunSingleIndex(const SingleIndexSpec& spec, const Args& args,
                    RunOutput* out, std::string* error) {
  constexpr size_t kThreads = 2, kConnections = 2;
  out->lines.push_back(HostStamp(kThreads + kConnections, "n/a"));
  Layers layers;

  std::vector<double> setup_s, setup_slowdown;
  std::vector<BuiltIndex> builds;
  std::vector<QuerySpec> pool, warm;
  Docs docs;
  std::string path;
  std::unique_ptr<gks::GksServer> server;
  for (int r = 0; r < spec.setup_repeats; ++r) {
    StopServer(&server);
    Span span("setup");
    double t0 = NowSeconds();
    docs = spec.corpus(args.seed);
    path = WorkPath(args, spec.name + "-" + std::to_string(r) + ".gksidx");
    BuiltIndex built;
    if (!BuildAndSave(docs, path, &built, error)) return false;
    builds.push_back(built);
    double paused = NowSeconds();
    if (pool.empty()) {
      // Input generation, not set-up: the stream comes from the saved
      // index's vocabulary and document frequencies.
      gks::Result<gks::XmlIndex> index = gks::LoadIndex(path);
      if (!index.ok()) {
        *error = index.status().ToString();
        return false;
      }
      std::vector<TermStat> vocab = Vocabulary(*index);
      std::vector<QuerySpec> all =
          DrawQueries(vocab, args.seed, spec.pool_size + spec.warmup,
                      spec.mix, spec.s_all_share, spec.df_power,
                      spec.max_df_share);
      warm.assign(all.begin(), all.begin() + spec.warmup);
      pool.assign(all.begin() + spec.warmup, all.end());
      if (spec.zipf) OrderForZipf(vocab, &pool);
    }
    double resumed = NowSeconds();
    gks::ServerConfig config;
    config.threads = kThreads;
    config.mmap = spec.mmap;
    server = StartServer(config, path, error);
    if (server == nullptr) return false;
    if (!SendAll(server->port(), WarmupLines(warm, spec.top_k, spec.refine),
                 error)) {
      return false;
    }
    setup_s.push_back(NowSeconds() - t0 - (resumed - paused));
    setup_slowdown.push_back(HostSlowdown());
    if (r + 1 < spec.setup_repeats) fs::remove(path);
  }
  AddSetup(setup_s, setup_slowdown, out);
  out->lines.push_back("corpus: " + std::to_string(docs.size()) +
                       " documents, " + std::to_string(builds.back().xml_bytes) +
                       " XML bytes; query pool: " + std::to_string(pool.size()));

  std::vector<uint32_t> stream;
  if (spec.zipf) {
    stream = ZipfStream(args.seed, pool.size(), 2000000, 0.9);
  } else {
    for (uint32_t i = 0; i < pool.size(); ++i) stream.push_back(i);
  }
  std::atomic<size_t> next{0};
  if (spec.cache_fill > 0) {
    // Caches fill before timing: the first `cache_fill` ops of the stream
    // run untimed, so the measured loop starts with the result cache in
    // its steady state instead of warming through it.
    std::vector<uint32_t> prefix(stream.begin(),
                                 stream.begin() + spec.cache_fill);
    std::atomic<size_t> fill_next{0};
    std::vector<QueryLaneState> fill_states(kConnections);
    std::vector<LoopLane> fill_lanes;
    for (QueryLaneState& state : fill_states) {
      fill_lanes.push_back(MakeQueryLane(pool, prefix, &fill_next, spec.top_k,
                                         spec.refine, 1, 0, &state));
    }
    LoopResult fill = RunClosedLoop(server->port(), fill_lanes, 120.0, false);
    for (const auto& lane : fill.lanes) {
      for (const OpRecord& r : lane) out->counts.Add(r.outcome);
    }
    next = spec.cache_fill;
  }
  std::vector<QueryLaneState> states(kConnections);
  std::vector<LoopLane> lanes;
  for (QueryLaneState& state : states) {
    lanes.push_back(MakeQueryLane(pool, stream, &next, spec.top_k, spec.refine,
                                  7, spec.gate_sample / 2, &state));
  }
  RegistryMark before = Mark();
  LoopResult loop = RunClosedLoop(server->port(), lanes, args.seconds,
                                  args.trace, kWindows, true);
  RegistryMark after = Mark();
  CheckStreamLasted(next.load(), stream.size(), out);

  LoopSummary summary;
  for (const auto& lane : loop.lanes) SummarizeLane(lane, &out->counts, &summary);
  AddQueryEndToEnd(loop, {0, 1}, summary, out);
  AddServerLayers(summary, &layers);
  layers["core.cache.hit_ratio"] =
      Ratio(CounterDelta(before, after, "gks.search.cache.hits_total"),
            CounterDelta(before, after, "gks.search.cache.hits_total") +
                CounterDelta(before, after, "gks.search.cache.misses_total"));

  double load_ms = 0.0;
  std::unique_ptr<gks::XmlIndex> index =
      LoadForGate(path, spec.mmap, &load_ms, error);
  if (index == nullptr) return false;
  AddIndexLayers(builds, load_ms, &layers);
  out->end_to_end["index_bytes_per_xml_byte"] =
      Ratio(builds.back().file_bytes, builds.back().xml_bytes);

  std::vector<uint32_t> sent = AllSent(states);
  ReportShape(Shape(*index, pool, sent, spec.top_k, kCacheCapacity),
              spec.shape, out);

  // Gate: captured loop replies equal the in-process searcher's.
  std::vector<Captured> captured = AllCaptured(states);
  if (captured.size() > spec.gate_sample) captured.resize(spec.gate_sample);
  size_t bad = CompareWithInProcess(*index, captured, out);
  if (spec.topk_gate) {
    gks::GksSearcher searcher(index.get());
    for (const Captured& c : captured) {
      const QuerySpec& q = pool[c.pool_index];
      gks::SearchOptions topk = OptionsFor(q, spec.top_k, spec.refine);
      gks::SearchOptions full = topk;
      full.top_k = 0;
      full.max_results = 0;
      gks::Result<gks::SearchResponse> a = searcher.Search(q.text, topk);
      gks::Result<gks::SearchResponse> b = searcher.Search(q.text, full);
      bool same = a.ok() && b.ok();
      for (size_t i = 0; same && i < a->nodes.size(); ++i) {
        same = i < b->nodes.size() && a->nodes[i].id == b->nodes[i].id &&
               a->nodes[i].rank == b->nodes[i].rank;
      }
      if (same) same = a->nodes.size() == std::min(b->nodes.size(), kTop);
      if (!same) {
        ++bad;
        out->lines.push_back("GATE top-k != full evaluation cut at k for '" +
                             q.text + "'");
      }
    }
  }
  out->counts.Add(Outcome::kWrongAnswer, bad);
  if (bad > 0 || captured.empty()) out->correct = false;
  out->lines.push_back("gate: " + std::to_string(captured.size()) +
                       " sampled server answers checked, " +
                       std::to_string(bad) + " wrong");

  if (args.trace) {
    layers["xml.parse_mb_per_s"] = SaxParseMbPerS(docs);
    TraceCore(*index, SampleSent(pool, sent, spec.trace_sample), spec.top_k,
              spec.refine, kTraceBudgetS, &layers, out);
    if (spec.shard_layers &&
        !MeasureShardLayers(args, docs, pool, stream, warm, &layers, out,
                            error)) {
      return false;
    }
    if (spec.hybrid_phase && !RunHybridPhase(args, &layers, out, error)) {
      return false;
    }
  }
  out->layers = std::move(layers);
  StopServer(&server);
  return true;
}

Docs DblpCorpus(uint32_t seed) {
  gks::data::DblpOptions options;
  options.articles = 20000;  // ~5.5 MB, one document
  options.seed = seed;
  return {{"dblp.xml", gks::data::GenerateDblp(options)}};
}

// Region-clustered small documents from six generators: each generator's
// vocabulary lives in its own contiguous run of documents, so posting
// lists are skewed across the document range.
Docs HybridCorpus(uint32_t seed) {
  Docs docs;
  auto add = [&](const std::string& prefix, size_t count,
                 const std::function<std::string(uint32_t)>& make) {
    for (size_t i = 0; i < count; ++i) {
      char name[64];
      std::snprintf(name, sizeof(name), "%s-%04zu.xml", prefix.c_str(), i);
      docs.push_back({name, make(seed * 7919u + static_cast<uint32_t>(i))});
    }
  };
  add("dblp", 120, [](uint32_t s) {
    gks::data::DblpOptions o;
    o.articles = 40;
    o.seed = s;
    return gks::data::GenerateDblp(o);
  });
  add("swissprot", 120, [](uint32_t s) {
    gks::data::SwissProtOptions o;
    o.entries = 12;
    o.seed = s;
    return gks::data::GenerateSwissProt(o);
  });
  add("nasa", 100, [](uint32_t s) {
    gks::data::NasaOptions o;
    o.datasets = 12;
    o.seed = s;
    return gks::data::GenerateNasa(o);
  });
  add("treebank", 100, [](uint32_t s) {
    gks::data::TreebankOptions o;
    o.sentences = 25;
    o.seed = s;
    return gks::data::GenerateTreebank(o);
  });
  add("mondial", 60, [](uint32_t s) {
    gks::data::MondialOptions o;
    o.countries = 3;
    o.seed = s;
    return gks::data::GenerateMondial(o);
  });
  add("sigmod", 60, [](uint32_t s) {
    gks::data::SigmodOptions o;
    o.issues = 1;
    o.seed = s;
    return gks::data::GenerateSigmodRecord(o);
  });
  return docs;
}

// ---- rt_ingest ------------------------------------------------------------------

// Letters the stemmer leaves alone, so a marker term survives analysis.
std::string MarkerFor(uint32_t seed, uint64_t seq) {
  static const char kAlphabet[] = "bcdfghjklmnpqrtvwxz";
  std::string out = "qx";
  uint64_t v = static_cast<uint64_t>(seed) * 1000003u + seq;
  do {
    out.push_back(kAlphabet[v % 19]);
    v /= 19;
  } while (v > 0);
  return out;
}

std::string InsertDoc(uint32_t seed, uint64_t seq) {
  gks::data::DblpOptions options;
  options.articles = 1;
  options.seed = seed * 104729u + static_cast<uint32_t>(seq);
  std::string xml = gks::data::GenerateDblp(options);
  const std::string open = "<dblp>\n";
  xml.insert(open.size(), " <key>" + MarkerFor(seed, seq) + "</key>\n");
  return xml;
}

// The rt_ingest writer's schedule: several flushes (512 documents) and
// merges per run, with room for the engine to keep up on a slow host.
constexpr double kInsertsPerSecond = 400.0;
// rt_ingest queries ask for the top 10 by full evaluation (no top-k
// pruning), DI included.
constexpr uint32_t kRtTopK = 0;

std::string InsertName(uint64_t seq) { return "ins-" + std::to_string(seq); }

bool RunRtIngest(const Args& args, RunOutput* out, std::string* error) {
  constexpr size_t kThreads = 2, kConnections = 2;
  const std::string fsync_policy = "off";
  out->lines.push_back(HostStamp(kThreads + kConnections, fsync_policy));
  Layers layers;

  std::vector<double> setup_s, setup_slowdown;
  std::vector<BuiltIndex> builds;
  std::vector<QuerySpec> pool, warm;
  Docs docs;
  std::string base_path, rt_dir;
  std::unique_ptr<gks::GksServer> server;
  for (int r = 0; r < kSetupRepeats; ++r) {
    StopServer(&server);
    Span span("setup");
    double t0 = NowSeconds();
    docs = DblpCorpus(args.seed);
    base_path = WorkPath(args, "rt-base-" + std::to_string(r) + ".gksidx");
    rt_dir = WorkPath(args, "rt-" + std::to_string(r));
    BuiltIndex built;
    if (!BuildAndSave(docs, base_path, &built, error)) return false;
    builds.push_back(built);
    double paused = NowSeconds();
    if (pool.empty()) {
      gks::Result<gks::XmlIndex> index = gks::LoadIndex(base_path);
      if (!index.ok()) {
        *error = index.status().ToString();
        return false;
      }
      // Every commit publishes a new epoch, so the result cache cannot hit
      // here: each query is sent once, in stream order.
      std::vector<QuerySpec> all = DrawQueries(
          Vocabulary(*index), args.seed, OnceOnlyPoolSize(args) + 20,
          {0.1, 0.5, 0.4}, 0.5, 0.5, kMaxDfShare);
      warm.assign(all.begin(), all.begin() + 20);
      pool.assign(all.begin() + 20, all.end());
    }
    double resumed = NowSeconds();
    fs::create_directories(rt_dir);
    gks::ServerConfig config;
    config.threads = kThreads;
    config.rt_dir = rt_dir;
    config.rt_fsync = false;
    server = StartServer(config, base_path, error);
    if (server == nullptr) return false;
    if (!SendAll(server->port(), WarmupLines(warm, kRtTopK, false), error)) {
      return false;
    }
    setup_s.push_back(NowSeconds() - t0 - (resumed - paused));
    setup_slowdown.push_back(HostSlowdown());
    if (r + 1 < kSetupRepeats) {
      StopServer(&server);
      fs::remove(base_path);
      fs::remove_all(rt_dir);
    }
  }
  AddSetup(setup_s, setup_slowdown, out);

  // Lane 0 inserts documents at a fixed rate; lane 1 queries concurrently
  // in a closed loop. The writer is paced so the index the queries see at
  // a given point of the loop (documents, flushes, merges) is the same on
  // a slow host as on a fast one.
  std::vector<uint32_t> stream(pool.size());
  for (uint32_t i = 0; i < pool.size(); ++i) stream[i] = i;
  std::atomic<size_t> next{0};
  std::vector<QueryLaneState> states(1);
  std::vector<size_t> issued_bytes;  // XML bytes of insert `seq`
  std::vector<uint64_t> acked;
  double inserted_bytes = 0;
  LoopLane writer;
  writer.span_name = "client.insert";
  writer.interval_s = 1.0 / kInsertsPerSecond;
  writer.make = [&](uint64_t seq) {
    std::string xml = InsertDoc(args.seed, seq);
    issued_bytes.push_back(xml.size());
    gks::JsonWriter json;
    json.BeginObject();
    json.Key("insert").String(InsertName(seq));
    json.Key("xml").String(xml);
    json.EndObject();
    return json.Take();
  };
  writer.check = [&](uint64_t seq, const gks::JsonValue& reply,
                     const std::string&) {
    if (reply.Find("doc_id") == nullptr) return Outcome::kWrongAnswer;
    acked.push_back(seq);
    inserted_bytes += static_cast<double>(issued_bytes[seq]);
    return Outcome::kOk;
  };
  std::vector<LoopLane> lanes = {
      writer, MakeQueryLane(pool, stream, &next, kRtTopK, false, 5, 4,
                             &states[0])};

  // Segment count seen by queries: base + on-disk segments + the RAM
  // segment set when it holds documents, sampled from the engine's gauges.
  std::atomic<bool> sampling{true};
  std::vector<double> segment_samples;
  std::thread sampler([&] {
    gks::MetricsRegistry& registry = gks::MetricsRegistry::Global();
    while (sampling.load()) {
      double segments =
          1.0 + static_cast<double>(
                    registry.GetGauge("gks.rt.disk_segments")->value()) +
          (registry.GetGauge("gks.rt.ram_docs")->value() > 0 ? 1.0 : 0.0);
      segment_samples.push_back(segments);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  RegistryMark before = Mark();
  LoopResult loop = RunClosedLoop(server->port(), lanes, args.seconds,
                                  args.trace, kWindows, true);
  RegistryMark after = Mark();
  sampling.store(false);
  sampler.join();
  CheckStreamLasted(next.load(), stream.size(), out);

  LoopSummary queries;
  OpCounts insert_counts;
  std::vector<double> commit_ms, commit_server_ms, late_ms;
  SummarizeLane(loop.lanes[1], &out->counts, &queries);
  for (const OpRecord& r : loop.lanes[0]) {
    insert_counts.Add(r.outcome);
    if (r.outcome != Outcome::kOk) continue;
    commit_ms.push_back(r.rtt_ms);
    commit_server_ms.push_back(r.server_ms);
    late_ms.push_back(r.late_ms);
  }
  out->counts.Merge(insert_counts);
  const double inserts = static_cast<double>(acked.size());
  AddQueryEndToEnd(loop, {1}, queries, out);
  AddServerLayers(queries, &layers);
  layers["core.cache.hit_ratio"] =
      Ratio(CounterDelta(before, after, "gks.search.cache.hits_total"),
            CounterDelta(before, after, "gks.search.cache.hits_total") +
                CounterDelta(before, after, "gks.search.cache.misses_total"));
  layers["rt.insert_ms"] = Mean(commit_server_ms);
  layers["rt.commit_p50_ms"] = Percentile(commit_ms, 0.5);
  layers["rt.commit_p95_ms"] = Percentile(commit_ms, 0.95);
  layers["rt.writer_late_ms"] = Mean(late_ms);
  layers["rt.flush_ms"] = HistMean(before, after, "gks.rt.flush.latency_ms");
  layers["rt.merge_ms"] = HistMean(before, after, "gks.rt.merge.latency_ms");
  layers["rt.flushes_per_kdoc"] =
      Ratio(HistCount(before, after, "gks.rt.flush.latency_ms") * 1000, inserts);
  layers["rt.merges_per_kdoc"] =
      Ratio(HistCount(before, after, "gks.rt.merge.latency_ms") * 1000, inserts);
  layers["rt.write_amp"] =
      Ratio(CounterDelta(before, after, "gks.rt.wal.bytes_total") +
                CounterDelta(before, after, "gks.rt.flush.bytes_total") +
                CounterDelta(before, after, "gks.rt.merge.bytes_total"),
            inserted_bytes);
  layers["rt.segments_per_query"] = Mean(segment_samples);
  layers["rt.segment_search_ms"] = Mean(queries.server_ms);
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "ingest: %zu acknowledged inserts (%s), %.1f/s against a "
                "schedule of %.0f/s, writer late by %.3f ms on average and "
                "%.1f ms at most, commit p50 %.4f ms p95 %.4f ms, %.0f "
                "flushes, %.0f merges",
                acked.size(), insert_counts.ToString().c_str(),
                inserts / loop.elapsed_s, kInsertsPerSecond, Mean(late_ms),
                late_ms.empty() ? 0.0
                                : *std::max_element(late_ms.begin(), late_ms.end()),
                Percentile(commit_ms, 0.5), Percentile(commit_ms, 0.95),
                HistCount(before, after, "gks.rt.flush.latency_ms"),
                HistCount(before, after, "gks.rt.merge.latency_ms"));
  out->lines.push_back(buf);

  // Final flush, then size on disk over live XML bytes.
  uint64_t live_expected = 1 + acked.size();
  std::string flush_error;
  if (!SendAll(server->port(), {"{\"cmd\":\"flush\"}"}, &flush_error)) {
    *error = "final flush: " + flush_error;
    return false;
  }
  out->end_to_end["index_bytes_per_xml_byte"] =
      Ratio(static_cast<double>(DirBytes(rt_dir) + builds.back().file_bytes),
            static_cast<double>(builds.back().xml_bytes) + inserted_bytes);

  // Gate, live server: stats agree and sampled markers are searchable.
  size_t bad = 0;
  std::vector<uint64_t> sample;
  for (size_t i = 0; i < acked.size() && sample.size() < 24;
       i += std::max<size_t>(1, acked.size() / 24)) {
    sample.push_back(acked[i]);
  }
  if (!acked.empty()) sample.push_back(acked.back());
  {
    gks::Result<gks::ServerConnection> conn =
        gks::ServerConnection::Open("127.0.0.1", server->port());
    gks::Result<gks::JsonValue> stats =
        conn.ok() ? conn->Call("{\"cmd\":\"stats\"}")
                  : gks::Result<gks::JsonValue>(conn.status());
    const gks::JsonValue* rt = stats.ok() ? stats->Find("rt") : nullptr;
    uint64_t live = rt && rt->Find("live_docs") ? rt->Find("live_docs")->GetInt() : 0;
    if (live != live_expected) {
      ++bad;
      out->lines.push_back("GATE live docs " + std::to_string(live) +
                           " != 1 base + " + std::to_string(acked.size()) +
                           " acknowledged");
    }
    for (uint64_t seq : sample) {
      gks::Result<gks::JsonValue> reply =
          conn.ok() ? conn->Query(MarkerFor(args.seed, seq), 1, kTop)
                    : gks::Result<gks::JsonValue>(conn.status());
      const gks::JsonValue* nodes = reply.ok() ? reply->Find("nodes") : nullptr;
      const gks::JsonValue* doc =
          nodes != nullptr && nodes->size() > 0 ? nodes->items()[0].Find("doc")
                                                : nullptr;
      if (doc == nullptr || doc->GetString() != InsertName(seq)) {
        ++bad;
        out->lines.push_back("GATE marker of " + InsertName(seq) +
                             " not found on the live server");
      }
    }
  }
  StopServer(&server);

  // Gate, recovery: reopen the run directory offline.
  {
    Span span("rt.recover");
    gks::RtOptions options;
    options.dir = rt_dir;
    options.base_index_path = base_path;
    options.fsync = false;
    options.background = false;
    gks::WallTimer timer;
    gks::Result<std::unique_ptr<gks::RtIndex>> reopened =
        gks::RtIndex::Open(options);
    layers["rt.recover_ms"] = timer.ElapsedMillis();
    if (!reopened.ok()) {
      ++bad;
      out->lines.push_back("GATE RtIndex::Open failed: " +
                           reopened.status().ToString());
    } else {
      if ((*reopened)->Stats().live_docs != live_expected) {
        ++bad;
        out->lines.push_back("GATE recovered live docs " +
                             std::to_string((*reopened)->Stats().live_docs) +
                             " != " + std::to_string(live_expected));
      }
      gks::SegmentSearcher searcher((*reopened)->snapshot());
      for (uint64_t seq : sample) {
        gks::SearchOptions options;
        options.max_results = kTop;
        gks::Result<gks::SearchResponse> r =
            searcher.Search(MarkerFor(args.seed, seq), options);
        if (!r.ok() || r->nodes.empty()) {
          ++bad;
          out->lines.push_back("GATE marker of " + InsertName(seq) +
                               " lost after recovery");
        }
      }
    }
  }
  out->counts.Add(Outcome::kWrongAnswer, bad);
  if (bad > 0 || acked.empty()) out->correct = false;
  out->lines.push_back("gate: live count + " + std::to_string(sample.size()) +
                       " markers checked live and after recovery, " +
                       std::to_string(bad) + " wrong");

  double load_ms = 0.0;
  std::unique_ptr<gks::XmlIndex> base =
      LoadForGate(base_path, false, &load_ms, error);
  if (base == nullptr) return false;
  AddIndexLayers(builds, load_ms, &layers);
  std::vector<uint32_t> sent = AllSent(states);
  ShapeBounds bounds;
  bounds.max_repeat = 0.0;  // every query once
  ReportShape(Shape(*base, pool, sent, kRtTopK, kCacheCapacity), bounds, out);
  if (args.trace) {
    layers["xml.parse_mb_per_s"] = SaxParseMbPerS(docs);
    TraceCore(*base, SampleSent(pool, sent, 40), kRtTopK, false,
              kTraceBudgetS, &layers, out);
  }
  out->layers = std::move(layers);
  return true;
}

SingleIndexSpec HybridSpec() {
  SingleIndexSpec spec;
  spec.name = "hybrid_topk";
  spec.corpus = HybridCorpus;
  spec.mmap = true;
  spec.top_k = kTop;
  spec.pool_size = 3000;
  spec.zipf = true;
  spec.mix = {0.4, 0.4, 0.2};
  spec.s_all_share = 0.5;
  spec.df_power = 1.0;
  spec.warmup = 20;
  spec.gate_sample = 40;
  spec.trace_sample = 200;
  spec.topk_gate = true;
  spec.shard_layers = true;
  spec.cache_fill = 2000;
  spec.shape.min_repeat = 0.5;
  spec.shape.distinct_over_cache = true;
  spec.shape.min_s_all = 0.25;
  spec.shape.min_topk_engaged = 0.1;
  spec.shape.min_probe = 0.1;
  return spec;
}

}  // namespace

bool RunWorkload(const Args& args, RunOutput* out, std::string* error) {
  if (args.workload == "dblp_di") {
    SingleIndexSpec spec;
    spec.name = "dblp_di";
    spec.corpus = DblpCorpus;
    spec.refine = true;
    spec.pool_size = OnceOnlyPoolSize(args);
    // A one-keyword query can only be drawn once per term, so singles are
    // kept to a share the vocabulary can fill for a whole run.
    spec.mix = {0.1, 0.5, 0.4};
    spec.max_df_share = kMaxDfShare;
    spec.shape.max_repeat = 0.0;  // every query once: no cache hits
    spec.warmup = 6;
    spec.gate_sample = 8;
    spec.trace_sample = 24;
    spec.hybrid_phase = true;
    return RunSingleIndex(spec, args, out, error);
  }
  if (args.workload == "hybrid_topk") {
    return RunSingleIndex(HybridSpec(), args, out, error);
  }
  if (args.workload == "rt_ingest") return RunRtIngest(args, out, error);
  *error = "unknown workload '" + args.workload + "'";
  return false;
}

}  // namespace perfbench
