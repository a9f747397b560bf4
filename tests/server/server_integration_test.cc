// End-to-end exercise of the query server over real TCP: an in-process
// GksServer on an ephemeral port, driven by ServerConnection/RunLoad —
// the same client stack `gks client` ships. Covers the acceptance bar of
// the server work: >= 1000 queries across >= 8 concurrent connections
// with a hot reload mid-run, every response valid JSON, no post-reload
// response from a retired epoch, shed requests answered with the
// documented `overloaded` error, and zero dropped in-flight queries on
// drain.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "common/metrics.h"
#include "data/dblp_gen.h"
#include "index/serialization.h"
#include "server/client.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace gks {
namespace {

/// Builds one DBLP index file, shared by every test in the suite.
const std::string& IndexPath() {
  static const std::string* path = [] {
    std::string file = gks::testing::UniqueTempDir() + "gks_server_test.gksidx";
    data::DblpOptions options;
    options.articles = 800;
    XmlIndex index =
        gks::testing::BuildIndexFromXml(data::GenerateDblp(options), "dblp.xml");
    Status status = SaveIndex(index, file);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return new std::string(file);
  }();
  return *path;
}

std::unique_ptr<GksServer> StartServer(ServerConfig config) {
  config.host = "127.0.0.1";
  config.port = 0;  // ephemeral; the kernel picks, tests read back port()
  auto server = std::make_unique<GksServer>(config, IndexPath());
  Status status = server->Start();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return server;
}

ServerConnection ConnectOrDie(const GksServer& server) {
  Result<ServerConnection> connection =
      ServerConnection::Open("127.0.0.1", server.port());
  EXPECT_TRUE(connection.ok()) << connection.status().ToString();
  return std::move(connection).value();
}

const std::vector<std::string>& LoadQueries() {
  static const std::vector<std::string>* queries =
      new std::vector<std::string>{
          "xml keyword search",
          "database",
          "\"Scott Weinstein\"",
          "query processing semantics",
      };
  return *queries;
}

TEST(ServerIntegrationTest, QueryAndAdminRoundTrip) {
  auto server = StartServer({});
  ServerConnection connection = ConnectOrDie(*server);

  Result<JsonValue> response = connection.Query("database");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->Find("ok")->GetBool());
  EXPECT_EQ(static_cast<uint64_t>(response->Find("epoch")->GetInt()),
            server->epoch());
  EXPECT_TRUE(response->Find("nodes")->is_array());

  Result<JsonValue> health = connection.Admin("health");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->Find("status")->GetString(), "serving");
  const JsonValue* load = health->Find("load");
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->Find("inflight")->GetInt(), 0);
  EXPECT_FALSE(load->Find("draining")->GetBool());
  // Kernel dispatch is part of the health contract: operators compare
  // replicas by these two fields before chasing latency deltas.
  ASSERT_NE(load->Find("cpu"), nullptr);
  ASSERT_NE(load->Find("dispatch"), nullptr);
  const std::string dispatch = load->Find("dispatch")->GetString();
  EXPECT_TRUE(dispatch == "scalar" || dispatch == "avx2") << dispatch;

  Result<JsonValue> stats = connection.Admin("stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const JsonValue* index = stats->Find("index");
  ASSERT_NE(index, nullptr);
  EXPECT_GT(index->Find("terms")->GetInt(), 0);
  EXPECT_GT(index->Find("postings")->GetInt(), 0);

  Result<JsonValue> metrics = connection.Admin("metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_NE(metrics->Find("metrics"), nullptr);
  EXPECT_TRUE(metrics->Find("metrics")->Has("counters"));

  // A malformed request is answered with bad_request and the connection
  // stays usable.
  Result<JsonValue> bad = connection.Call(R"({"query":"x","bogus":1})");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_FALSE(bad->Find("ok")->GetBool());
  EXPECT_EQ(bad->Find("error")->GetString(), "bad_request");

  Result<JsonValue> not_json = connection.Call("this is not json");
  ASSERT_TRUE(not_json.ok());
  EXPECT_EQ(not_json->Find("error")->GetString(), "bad_request");

  Result<JsonValue> again = connection.Query("database");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->Find("ok")->GetBool());

  // Correlation ids are echoed verbatim, string or integer.
  Result<JsonValue> with_id =
      connection.Call(R"({"query":"database","id":"req-17"})");
  ASSERT_TRUE(with_id.ok());
  EXPECT_EQ(with_id->Find("id")->GetString(), "req-17");
}

TEST(ServerIntegrationTest, OversizedRequestIsAnsweredThenDropped) {
  ServerConfig config;
  config.max_request_bytes = 256;
  auto server = StartServer(config);
  ServerConnection connection = ConnectOrDie(*server);

  std::string huge = R"({"query":")" + std::string(1024, 'x') + R"("})";
  Result<JsonValue> response = connection.Call(huge);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->Find("ok")->GetBool());
  EXPECT_EQ(response->Find("error")->GetString(), "oversized");

  // The stream cannot be re-framed; the server dropped the connection.
  Result<JsonValue> after = connection.Query("database");
  EXPECT_FALSE(after.ok());
}

// The acceptance-bar test: 8 connections x 125 requests = 1000 queries,
// a hot `reload` fired mid-run from a ninth (admin) connection, plus
// concurrent malformed and oversized clients in the mix. Every response
// must parse, every epoch seen must be one the server actually served,
// and the first query admitted after the reload ack must already run on
// the new epoch.
TEST(ServerIntegrationTest, ConcurrentLoadSurvivesMidStreamReload) {
  ServerConfig config;
  config.threads = 4;
  config.queue_depth = 256;        // plenty: this run must not shed
  config.max_request_bytes = 4096;  // lets the oversized client trip it
  auto server = StartServer(config);
  const uint64_t initial_epoch = server->epoch();

  MetricsRegistry& registry = MetricsRegistry::Global();
  MetricsSnapshot before = registry.Snapshot();

  LoadOptions options;
  options.port = server->port();
  options.connections = 8;
  options.requests_per_connection = 125;
  options.queries = LoadQueries();

  Result<LoadReport> report = Status::IOError("load never ran");
  std::thread load([&options, &report] { report = RunLoad(options); });

  // Malformed client: hammers bad requests on its own connection while
  // the load runs; each must be answered bad_request, connection intact.
  std::atomic<int> malformed_misses{0};
  std::thread malformed([&server, &malformed_misses] {
    ServerConnection connection = ConnectOrDie(*server);
    for (int i = 0; i < 50; ++i) {
      Result<JsonValue> response =
          connection.Call(i % 2 == 0 ? R"({"query":"x","bogus":1})"
                                     : "garbage line");
      if (!response.ok() ||
          response->Find("error")->GetString() != "bad_request") {
        ++malformed_misses;
      }
    }
  });

  // Oversized client: a line past max_request_bytes gets `oversized`.
  std::atomic<int> oversized_misses{0};
  std::thread oversized([&server, &oversized_misses] {
    ServerConnection connection = ConnectOrDie(*server);
    std::string huge = R"({"query":")" + std::string(8192, 'y') + R"("})";
    Result<JsonValue> response = connection.Call(huge);
    if (!response.ok() ||
        response->Find("error")->GetString() != "oversized") {
      ++oversized_misses;
    }
  });

  // Mid-stream hot reload from a separate admin connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ServerConnection admin = ConnectOrDie(*server);
  Result<JsonValue> reloaded = admin.Admin("reload");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded->Find("ok")->GetBool());
  EXPECT_EQ(reloaded->Find("status")->GetString(), "reloaded");
  const uint64_t new_epoch =
      static_cast<uint64_t>(reloaded->Find("epoch")->GetInt());
  EXPECT_GT(new_epoch, initial_epoch);

  // Epoch consistency: a query admitted after the reload ack must be
  // served by the new snapshot, never the retired one.
  Result<JsonValue> post_reload = admin.Query("database");
  ASSERT_TRUE(post_reload.ok()) << post_reload.status().ToString();
  EXPECT_TRUE(post_reload->Find("ok")->GetBool());
  EXPECT_EQ(static_cast<uint64_t>(post_reload->Find("epoch")->GetInt()),
            new_epoch);

  load.join();
  malformed.join();
  oversized.join();

  EXPECT_EQ(malformed_misses.load(), 0);
  EXPECT_EQ(oversized_misses.load(), 0);

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sent, 1000u);
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(report->ok, 1000u) << report->ToString();  // nothing shed
  // Zero dropped in-flight queries across the reload.
  EXPECT_EQ(report->transport_failures, 0u);
  EXPECT_EQ(report->invalid_json, 0u);
  // Every epoch observed is one the server actually served, in order.
  ASSERT_FALSE(report->epochs_seen.empty());
  for (uint64_t epoch : report->epochs_seen) {
    EXPECT_TRUE(epoch == initial_epoch || epoch == new_epoch)
        << "response from unknown epoch " << epoch;
  }

  MetricsSnapshot delta = MetricsSnapshot::Delta(before, registry.Snapshot());
  EXPECT_GE(delta.counters.at("gks.server.queries_total"), 1000u);
  EXPECT_GE(delta.counters.at("gks.server.reloads_total"), 1u);
  EXPECT_GE(delta.histograms.at("gks.server.request.latency_ms").count,
            1000u);
}

TEST(ServerIntegrationTest, AdmissionControlShedsWithOverloadedError) {
  ServerConfig config;
  config.threads = 1;
  config.queue_depth = 1;
  auto server = StartServer(config);

  LoadOptions options;
  options.port = server->port();
  options.connections = 32;
  options.requests_per_connection = 8;
  options.queries = LoadQueries();

  // Shedding is a race by construction; retry the burst a few times
  // rather than asserting on one timing.
  LoadReport last;
  for (int attempt = 0; attempt < 5; ++attempt) {
    Result<LoadReport> report = RunLoad(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // Whatever the timing, every request must be answered and every
    // error must be the documented `overloaded` code.
    EXPECT_TRUE(report->clean()) << report->ToString();
    EXPECT_EQ(report->sent, 32u * 8u);
    last = *report;
    if (last.overloaded > 0) break;
  }
  EXPECT_GT(last.overloaded, 0u)
      << "32 concurrent connections never tripped queue_depth=1: "
      << last.ToString();
  EXPECT_EQ(last.ok + last.overloaded, last.sent) << last.ToString();
}

TEST(ServerIntegrationTest, DeadlineExpiredInQueueIsAnsweredWithoutSearch) {
  ServerConfig config;
  config.threads = 1;
  config.queue_depth = 64;
  config.deadline_ms = 0.0001;  // everything expires before dequeue
  auto server = StartServer(config);

  LoadOptions options;
  options.port = server->port();
  options.connections = 8;
  options.requests_per_connection = 4;
  options.queries = LoadQueries();

  Result<LoadReport> report = RunLoad(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_GT(report->deadline_exceeded, 0u) << report->ToString();
}

TEST(ServerIntegrationTest, ReloadFailureKeepsServing) {
  auto server = StartServer({});
  ServerConnection connection = ConnectOrDie(*server);
  const uint64_t epoch = server->epoch();

  Result<JsonValue> failed =
      connection.Admin("reload", "/nonexistent/path.gksidx");
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  EXPECT_FALSE(failed->Find("ok")->GetBool());
  EXPECT_EQ(failed->Find("error")->GetString(), "reload_failed");
  EXPECT_EQ(server->epoch(), epoch);  // old snapshot keeps serving

  Result<JsonValue> response = connection.Query("database");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->Find("ok")->GetBool());
  EXPECT_EQ(static_cast<uint64_t>(response->Find("epoch")->GetInt()), epoch);

  // Reload with an explicit (valid) path override still works.
  Result<JsonValue> reloaded = connection.Admin("reload", IndexPath());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded->Find("ok")->GetBool());
  EXPECT_GT(static_cast<uint64_t>(reloaded->Find("epoch")->GetInt()), epoch);
}

TEST(ServerIntegrationTest, QuitDrainsInFlightQueriesBeforeExit) {
  ServerConfig config;
  config.threads = 2;
  auto server = StartServer(config);

  // A busy client keeps queries streaming while another connection asks
  // the server to quit; every streamed query must either succeed or be
  // answered with the documented shutting_down error — never dropped
  // mid-response.
  std::atomic<int> ok_count{0};
  std::atomic<int> bad_responses{0};
  std::thread busy([&server, &ok_count, &bad_responses] {
    ServerConnection connection = ConnectOrDie(*server);
    for (int i = 0; i < 10000; ++i) {
      Result<JsonValue> response = connection.Query("database");
      if (!response.ok()) break;  // drain closed the connection: expected
      if (response->Find("ok")->GetBool()) {
        ++ok_count;
      } else if (response->Find("error")->GetString() != "shutting_down") {
        ++bad_responses;
      }
    }
  });

  // Quit only after the busy client demonstrably got an answer — a fixed
  // sleep is not enough under sanitizers, where the first query can take
  // longer than the whole drain.
  while (ok_count.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ServerConnection admin = ConnectOrDie(*server);
  Result<JsonValue> quit = admin.Admin("quit");
  ASSERT_TRUE(quit.ok()) << quit.status().ToString();
  EXPECT_EQ(quit->Find("status")->GetString(), "draining");

  server->Wait();
  EXPECT_TRUE(server->finished());
  EXPECT_EQ(server->inflight(), 0u);
  busy.join();
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_EQ(bad_responses.load(), 0);
}

// The wire protocol's `plan` override: every forced strategy is honored,
// echoed in the response `plan` field, returns the same nodes, and bumps
// its `gks.search.plan.*` counter — including after a hot reload (the
// planner lives in the searcher, which is rebuilt per snapshot).
TEST(ServerIntegrationTest, PlanOverrideHonoredAndCountedAcrossReload) {
  auto server = StartServer({});
  ServerConnection connection = ConnectOrDie(*server);
  MetricsRegistry& registry = MetricsRegistry::Global();

  auto query_with_plan = [&connection](const std::string& plan) {
    Result<JsonValue> response = connection.Query("database xml", 1, 10, plan);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->Find("ok")->GetBool());
    return std::move(response).value();
  };

  MetricsSnapshot before = registry.Snapshot();
  JsonValue merge = query_with_plan("merge");
  JsonValue probe = query_with_plan("probe");
  JsonValue hybrid = query_with_plan("hybrid");
  JsonValue autop = query_with_plan("auto");

  // Forced strategies are echoed verbatim; auto resolves to a concrete one.
  EXPECT_EQ(merge.Find("plan")->GetString(), "merge");
  EXPECT_EQ(probe.Find("plan")->GetString(), "probe");
  EXPECT_EQ(hybrid.Find("plan")->GetString(), "hybrid");
  const std::string resolved = autop.Find("plan")->GetString();
  EXPECT_TRUE(resolved == "merge" || resolved == "probe" ||
              resolved == "hybrid")
      << resolved;

  // Identical results over the wire regardless of strategy.
  ASSERT_EQ(merge.Find("nodes")->size(), probe.Find("nodes")->size());
  ASSERT_EQ(merge.Find("nodes")->size(), hybrid.Find("nodes")->size());
  for (size_t i = 0; i < merge.Find("nodes")->size(); ++i) {
    const std::string id =
        merge.Find("nodes")->items()[i].Find("id")->GetString();
    EXPECT_EQ(probe.Find("nodes")->items()[i].Find("id")->GetString(), id);
    EXPECT_EQ(hybrid.Find("nodes")->items()[i].Find("id")->GetString(), id);
  }

  MetricsSnapshot mid = registry.Snapshot();
  MetricsSnapshot delta = MetricsSnapshot::Delta(before, mid);
  EXPECT_GE(delta.counters.at("gks.search.plan.merge_total"), 1u);
  EXPECT_GE(delta.counters.at("gks.search.plan.probe_total"), 1u);
  EXPECT_GE(delta.counters.at("gks.search.plan.hybrid_total"), 1u);

  // A bad plan value is a bad_request, not a silent fallback.
  Result<JsonValue> bad =
      connection.Call(R"({"query":"database","plan":"fastest"})");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->Find("ok")->GetBool());
  EXPECT_EQ(bad->Find("error")->GetString(), "bad_request");

  // Counters keep advancing on the post-reload snapshot.
  Result<JsonValue> reloaded = connection.Admin("reload");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded->Find("ok")->GetBool());
  JsonValue after_probe = query_with_plan("probe");
  EXPECT_EQ(after_probe.Find("plan")->GetString(), "probe");
  MetricsSnapshot after = registry.Snapshot();
  MetricsSnapshot reload_delta = MetricsSnapshot::Delta(mid, after);
  EXPECT_GE(reload_delta.counters.at("gks.search.plan.probe_total"), 1u);
}

TEST(ServerIntegrationTest, MmapLoadServesIdenticalResults) {
  ServerConfig eager_config;
  auto eager = StartServer(eager_config);
  ServerConfig mapped_config;
  mapped_config.mmap = true;
  auto mapped = StartServer(mapped_config);

  ServerConnection eager_conn = ConnectOrDie(*eager);
  ServerConnection mapped_conn = ConnectOrDie(*mapped);
  for (const std::string& query : LoadQueries()) {
    Result<JsonValue> a = eager_conn.Query(query);
    Result<JsonValue> b = mapped_conn.Query(query);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(a->Find("ok")->GetBool() && b->Find("ok")->GetBool());
    ASSERT_EQ(a->Find("nodes")->size(), b->Find("nodes")->size()) << query;
    for (size_t i = 0; i < a->Find("nodes")->size(); ++i) {
      EXPECT_EQ(a->Find("nodes")->items()[i].Find("id")->GetString(),
                b->Find("nodes")->items()[i].Find("id")->GetString());
    }
  }
}

}  // namespace
}  // namespace gks
