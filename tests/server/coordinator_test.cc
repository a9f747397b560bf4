// End-to-end coordinator exercise over real TCP (docs/DISTRIBUTED.md):
// shard workers and a coordinator as in-process GksServers on ephemeral
// ports, driven through the shipped client stack. Pins the distributed
// contract at the wire level — a coordinator answer is byte-identical
// (modulo epoch/elapsed_ms) to a single-index server over the same
// repository — plus replica failover, degraded partial answers, the
// shard_unavailable error path, and the coordinator admin surface.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/metrics.h"
#include "index/index_builder.h"
#include "index/serialization.h"
#include "index/shard.h"
#include "server/client.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "xml/sax_parser.h"

namespace gks {
namespace {

/// The sharded corpus, built once: five documents split into two shards
/// plus one combined oracle index over the same files in the same order.
struct Repo {
  std::string dir;
  ShardManifest manifest;
  std::string single_index;               // the oracle
  std::vector<std::string> shard_paths;   // in shard order
};

const Repo& BuildRepo() {
  static const Repo* repo = [] {
    auto* out = new Repo();
    out->dir = gks::testing::UniqueTempDir() + "gks_coord_test";
    std::string mkdir = "mkdir -p " + out->dir;
    EXPECT_EQ(std::system(mkdir.c_str()), 0);
    const std::vector<std::string> docs = {
        "<article year=\"2001\"><title>xml keyword search</title>"
        "<author>weinstein</author></article>",
        "<article year=\"2001\"><title>keyword query semantics</title>"
        "<author>jones</author></article>",
        "<article year=\"2004\"><title>database keyword ranking</title>"
        "<author>weinstein</author></article>",
        "<article year=\"2004\"><title>xml database systems</title>"
        "<author>smith</author></article>",
        "<article year=\"2008\"><title>search ranking potential flow</title>"
        "<author>jones</author></article>",
    };
    std::vector<std::string> files;
    for (size_t i = 0; i < docs.size(); ++i) {
      files.push_back(out->dir + "/doc_" + std::to_string(i) + ".xml");
      EXPECT_TRUE(xml::WriteStringToFile(files.back(), docs[i]).ok());
    }
    Result<ShardManifest> manifest = SplitIntoShards(files, 2, out->dir);
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    out->manifest = std::move(manifest).value();
    for (const ShardSpec& shard : out->manifest.shards) {
      out->shard_paths.push_back(out->dir + "/" + shard.file);
    }
    IndexBuilder builder;
    for (const std::string& file : files) {
      EXPECT_TRUE(builder.AddFile(file).ok());
    }
    Result<XmlIndex> oracle = std::move(builder).Finalize();
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
    out->single_index = out->dir + "/single.gksidx";
    EXPECT_TRUE(SaveIndex(*oracle, out->single_index).ok());
    return out;
  }();
  return *repo;
}

std::unique_ptr<GksServer> StartWorker(size_t shard) {
  const Repo& repo = BuildRepo();
  ServerConfig config;
  config.port = 0;
  config.doc_base = repo.manifest.shards[shard].doc_base;
  auto server =
      std::make_unique<GksServer>(config, repo.shard_paths[shard]);
  Status status = server->Start();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return server;
}

std::unique_ptr<GksServer> StartSingle() {
  ServerConfig config;
  config.port = 0;
  auto server = std::make_unique<GksServer>(config, BuildRepo().single_index);
  EXPECT_TRUE(server->Start().ok());
  return server;
}

std::unique_ptr<GksServer> StartCoordinator(const std::string& topology,
                                            bool allow_partial = false) {
  ServerConfig config;
  config.port = 0;
  config.coord_shards = topology;
  config.coord_retries = 2;
  config.coord_backoff_ms = 1.0;  // keep retry sleeps test-fast
  config.coord_partial = allow_partial;
  auto server = std::make_unique<GksServer>(config, "");
  Status status = server->Start();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return server;
}

void Stop(std::unique_ptr<GksServer>& server) {
  server->RequestShutdown();
  server->Wait();
}

std::string Endpoint(const GksServer& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

ServerConnection ConnectOrDie(const GksServer& server) {
  Result<ServerConnection> connection =
      ServerConnection::Open("127.0.0.1", server.port());
  EXPECT_TRUE(connection.ok()) << connection.status().ToString();
  return std::move(connection).value();
}

/// Strips the legitimately-different fields (snapshot epoch, wall clock,
/// optionally the plan name) so the rest of the line can be compared
/// byte for byte. None of these fields is ever last in the envelope, so
/// eating the trailing comma keeps the JSON well formed.
std::string Normalized(std::string line, bool strip_plan = false) {
  std::vector<std::string> keys = {"\"epoch\":", "\"elapsed_ms\":"};
  if (strip_plan) keys.push_back("\"plan\":");
  for (const std::string& key : keys) {
    size_t begin = line.find(key);
    if (begin == std::string::npos) continue;
    size_t end = line.find_first_of(",}", begin + key.size());
    if (end == std::string::npos) continue;
    line.erase(begin, end - begin + 1);
  }
  return line;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

/// One raw request line against two servers; both must answer and the
/// normalized responses must match byte for byte.
void ExpectSameAnswer(ServerConnection& coord, ServerConnection& single,
                      const std::string& request, bool strip_plan = false) {
  Result<std::string> from_coord = coord.CallRaw(request);
  Result<std::string> from_single = single.CallRaw(request);
  ASSERT_TRUE(from_coord.ok()) << from_coord.status().ToString();
  ASSERT_TRUE(from_single.ok()) << from_single.status().ToString();
  EXPECT_EQ(Normalized(*from_coord, strip_plan),
            Normalized(*from_single, strip_plan))
      << request;
}

TEST(CoordinatorTest, MergedAnswersMatchSingleIndexByteForByte) {
  auto worker0 = StartWorker(0);
  auto worker1 = StartWorker(1);
  auto single = StartSingle();
  auto coord =
      StartCoordinator(Endpoint(*worker0) + "," + Endpoint(*worker1));
  EXPECT_TRUE(coord->is_coordinator());

  ServerConnection coord_conn = ConnectOrDie(*coord);
  ServerConnection single_conn = ConnectOrDie(*single);
  // The planner sees different statistics per shard than over the full
  // repository, so the plan *name* is pinned by forcing the strategy —
  // node ranks and ordering are pinned regardless.
  const std::vector<std::string> requests = {
      R"({"query":"keyword","s":1,"top":10,"plan":"merge"})",
      R"({"query":"xml database","s":1,"top":10,"plan":"merge"})",
      R"({"query":"xml database","s":2,"top":10,"plan":"merge"})",
      R"({"query":"keyword search ranking","s":2,"top":10,"plan":"merge"})",
      R"({"query":"weinstein keyword","s":1,"top":10,"plan":"merge","top_k":3})",
      R"({"query":"\"potential flow\"","s":1,"top":10,"plan":"merge"})",
      R"({"query":"nosuchtoken","s":1,"top":10,"plan":"merge"})",
  };
  for (const std::string& request : requests) {
    ExpectSameAnswer(coord_conn, single_conn, request);
  }

  // Unforced plan: everything but the plan *name* still agrees — per
  // shard the planner sees different posting statistics, yet every
  // strategy is exact, so nodes/DI/refinements are unchanged.
  ExpectSameAnswer(coord_conn, single_conn,
                   R"({"query":"keyword database","s":1,"top":10})",
                   /*strip_plan=*/true);

  Stop(coord);
  Stop(single);
  Stop(worker0);
  Stop(worker1);
}

TEST(CoordinatorTest, FailoverToReplicaGivesIdenticalAnswers) {
  auto primary0 = StartWorker(0);
  auto replica0 = StartWorker(0);  // same shard file, second process
  auto worker1 = StartWorker(1);
  auto single = StartSingle();
  auto coord = StartCoordinator(Endpoint(*primary0) + "|" +
                                Endpoint(*replica0) + "," +
                                Endpoint(*worker1));

  ServerConnection coord_conn = ConnectOrDie(*coord);
  ServerConnection single_conn = ConnectOrDie(*single);
  const std::string request =
      R"({"query":"keyword search","s":1,"top":10,"plan":"merge"})";
  ExpectSameAnswer(coord_conn, single_conn, request);

  // Kill the primary; the coordinator must fail over to the replica and
  // the answer must not change at all.
  uint64_t failovers_before = CounterValue("gks.coord.failovers_total");
  Stop(primary0);
  ExpectSameAnswer(coord_conn, single_conn, request);
  EXPECT_GT(CounterValue("gks.coord.failovers_total"), failovers_before);

  Stop(coord);
  Stop(single);
  Stop(replica0);
  Stop(worker1);
}

TEST(CoordinatorTest, DegradedAnswersCarryTheContractFields) {
  const Repo& repo = BuildRepo();
  auto worker0 = StartWorker(0);
  auto worker1 = StartWorker(1);
  auto coord = StartCoordinator(
      Endpoint(*worker0) + "," + Endpoint(*worker1), /*allow_partial=*/true);
  ServerConnection connection = ConnectOrDie(*coord);

  // Healthy fan-out: a full answer must NOT carry the degraded trio.
  Result<JsonValue> full = connection.Query("keyword", 1, 10);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->Find("ok")->GetBool());
  EXPECT_EQ(full->Find("degraded"), nullptr);

  uint64_t degraded_before = CounterValue("gks.coord.degraded_total");
  Stop(worker1);
  Result<JsonValue> partial = connection.Query("keyword", 1, 10);
  ASSERT_TRUE(partial.ok());
  ASSERT_TRUE(partial->Find("ok")->GetBool());
  ASSERT_NE(partial->Find("degraded"), nullptr);
  EXPECT_TRUE(partial->Find("degraded")->GetBool());
  EXPECT_EQ(partial->Find("shards_ok")->GetInt(), 1);
  EXPECT_EQ(partial->Find("shards_total")->GetInt(), 2);
  EXPECT_GT(CounterValue("gks.coord.degraded_total"), degraded_before);
  // Every node in a degraded answer comes from a reachable shard: doc
  // ids stay below the dead shard's doc_base.
  uint32_t dead_base = repo.manifest.shards[1].doc_base;
  for (const JsonValue& node : partial->Find("nodes")->items()) {
    const std::string& id = node.Find("id")->GetString();
    EXPECT_LT(static_cast<uint32_t>(std::atoi(id.c_str())), dead_base) << id;
  }

  Stop(coord);
  Stop(worker0);
}

TEST(CoordinatorTest, ShardUnavailableWhenPartialAnswersAreDisallowed) {
  auto worker0 = StartWorker(0);
  auto worker1 = StartWorker(1);
  auto coord =
      StartCoordinator(Endpoint(*worker0) + "," + Endpoint(*worker1));
  ServerConnection connection = ConnectOrDie(*coord);
  Stop(worker1);

  Result<JsonValue> response = connection.Query("keyword", 1, 10);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->Find("ok")->GetBool());
  EXPECT_EQ(response->Find("error")->GetString(), "shard_unavailable");

  // A query the coordinator itself rejects (unparsable) is fatal, not
  // retried into shard_unavailable.
  Result<JsonValue> unparsable = connection.Query("\"unterminated", 1, 10);
  ASSERT_TRUE(unparsable.ok());
  EXPECT_FALSE(unparsable->Find("ok")->GetBool());
  EXPECT_EQ(unparsable->Find("error")->GetString(), "search_failed");

  Stop(coord);
  Stop(worker0);
}

TEST(CoordinatorTest, AdminSurfaceAndShardModeWire) {
  auto worker0 = StartWorker(0);
  auto worker1 = StartWorker(1);
  auto coord =
      StartCoordinator(Endpoint(*worker0) + "," + Endpoint(*worker1));
  ServerConnection connection = ConnectOrDie(*coord);

  Result<JsonValue> health = connection.Admin("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->Find("status")->GetString(), "serving");
  const JsonValue* load = health->Find("load");
  ASSERT_NE(load, nullptr);
  ASSERT_NE(load->Find("role"), nullptr);
  EXPECT_EQ(load->Find("role")->GetString(), "coordinator");
  ASSERT_NE(load->Find("shards"), nullptr);
  EXPECT_EQ(load->Find("shards")->size(), 2u);

  Result<JsonValue> stats = connection.Admin("stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_NE(stats->Find("coord"), nullptr);
  EXPECT_EQ(stats->Find("coord")->Find("shards")->GetInt(), 2);

  // A coordinator has no index to reload.
  Result<JsonValue> reload = connection.Admin("reload");
  ASSERT_TRUE(reload.ok());
  EXPECT_FALSE(reload->Find("ok")->GetBool());

  // Coordinators are not workers: a "shard" request is refused rather
  // than half-merged.
  Result<JsonValue> nested =
      connection.Call(R"({"query":"keyword","shard":true})");
  ASSERT_TRUE(nested.ok());
  EXPECT_FALSE(nested->Find("ok")->GetBool());
  EXPECT_EQ(nested->Find("error")->GetString(), "bad_request");

  // Worker shard mode carries the lossless payload; explain is refused
  // in shard mode; di_contrib is shard-only.
  ServerConnection worker_conn = ConnectOrDie(*worker0);
  Result<JsonValue> shard = worker_conn.Call(
      R"({"query":"keyword","s":1,"shard":true,"di_contrib":true})");
  ASSERT_TRUE(shard.ok());
  ASSERT_TRUE(shard->Find("ok")->GetBool());
  ASSERT_GT(shard->Find("nodes")->size(), 0u);
  const JsonValue& first = shard->Find("nodes")->items()[0];
  ASSERT_NE(first.Find("mask"), nullptr);
  ASSERT_NE(first.Find("rank_bits"), nullptr);
  Result<JsonValue> bad_explain = worker_conn.Call(
      R"({"query":"keyword","shard":true,"explain":true})");
  ASSERT_TRUE(bad_explain.ok());
  EXPECT_EQ(bad_explain->Find("error")->GetString(), "bad_request");
  Result<JsonValue> bad_contrib =
      worker_conn.Call(R"({"query":"keyword","di_contrib":true})");
  ASSERT_TRUE(bad_contrib.ok());
  EXPECT_EQ(bad_contrib->Find("error")->GetString(), "bad_request");

  Stop(coord);
  Stop(worker0);
  Stop(worker1);
}

// The partition a real-time worker serves is a segment set, not a single
// index: a base segment, inserted documents (flushed and still in RAM)
// and a tombstone. Its shard partials (per-node DI contributions read
// from each node's own segment) must merge at the coordinator into the
// same nodes, ranks, DI and refinements as a single-index server over
// the live documents. |S_L| and candidate counts legitimately differ —
// the worker still scans the deleted document's postings — so only the
// `nodes`, `di` and `refinements` tail of each line is compared.
TEST(CoordinatorTest, RtWorkerMatchesSingleIndexOverLiveDocuments) {
  // Articles with an author group are entities, so the matches are LCE
  // nodes and DI has attribute values to accumulate.
  auto article = [](const char* year, const char* title, const char* first,
                    const char* second) {
    return std::string("<article><year>") + year + "</year><title>" + title +
           "</title><author>" + first + "</author><author>" + second +
           "</author></article>";
  };
  auto dblp = [](const std::string& a, const std::string& b) {
    return "<dblp>" + a + b + "</dblp>";
  };
  const std::vector<std::pair<std::string, std::string>> docs = {
      {"a.xml",
       dblp(article("2001", "xml keyword search", "weinstein", "jones"),
            article("2004", "keyword query ranking", "jones", "smith"))},
      {"b.xml",
       dblp(article("2004", "xml database systems", "weinstein", "smith"),
            article("2001", "graph search", "smith", "jones"))},
      {"c.xml",
       dblp(article("2001", "keyword ranking flow", "smith", "weinstein"),
            article("2008", "xml storage", "jones", "smith"))},
      {"d.xml",
       dblp(article("2008", "xml keyword ranking", "jones", "weinstein"),
            article("2004", "keyword search", "weinstein", "smith"))},
      {"e.xml",
       dblp(article("2004", "ranking xml keyword", "smith", "jones"),
            article("2001", "query systems", "jones", "weinstein"))},
      {"doomed.xml",
       dblp(article("2001", "xml keyword ranking", "weinstein", "smith"),
            article("2004", "keyword ranking", "smith", "jones"))},
  };
  const std::string dir = gks::testing::UniqueTempDir();
  XmlIndex base = gks::testing::BuildIndexFromDocs({docs[0], docs[1]});
  ASSERT_TRUE(SaveIndex(base, dir + "coord_rt_base.gksidx").ok());
  ServerConfig rt_config;
  rt_config.port = 0;
  rt_config.rt_dir = dir + "coord_rt";
  rt_config.rt_fsync = false;
  auto worker =
      std::make_unique<GksServer>(rt_config, dir + "coord_rt_base.gksidx");
  ASSERT_TRUE(worker->Start().ok());
  {
    ServerConnection writer = ConnectOrDie(*worker);
    for (size_t i = 2; i < docs.size(); ++i) {
      Result<JsonValue> inserted =
          writer.Insert(docs[i].first, docs[i].second);
      ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
      ASSERT_TRUE(inserted->Find("ok")->GetBool()) << docs[i].first;
      if (i == 3) {
        ASSERT_TRUE(writer.Admin("flush").ok());  // two flushed inserts
      }
    }
    Result<JsonValue> deleted = writer.Remove("doomed.xml");
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    ASSERT_TRUE(deleted->Find("found")->GetBool());
  }

  // The oracle holds the live documents in insertion order, so global
  // doc ids (the tombstone is the last document) line up.
  XmlIndex live = gks::testing::BuildIndexFromDocs(
      {docs[0], docs[1], docs[2], docs[3], docs[4]});
  ASSERT_TRUE(SaveIndex(live, dir + "coord_rt_live.gksidx").ok());
  ServerConfig single_config;
  single_config.port = 0;
  auto single = std::make_unique<GksServer>(single_config,
                                            dir + "coord_rt_live.gksidx");
  ASSERT_TRUE(single->Start().ok());
  auto coord = StartCoordinator(Endpoint(*worker));

  ServerConnection coord_conn = ConnectOrDie(*coord);
  ServerConnection single_conn = ConnectOrDie(*single);
  const std::vector<std::string> requests = {
      R"({"query":"keyword","s":1,"top":10,"refine":true})",
      R"({"query":"xml ranking","s":1,"top":10,"refine":true})",
      R"({"query":"xml ranking","s":2,"top":10,"refine":true})",
      R"({"query":"weinstein keyword","s":1,"top":10,"top_k":2})",
      R"({"query":"keyword ranking","s":2,"top":2,"refine":true})",
  };
  bool saw_di = false;
  for (const std::string& request : requests) {
    Result<std::string> from_coord = coord_conn.CallRaw(request);
    Result<std::string> from_single = single_conn.CallRaw(request);
    ASSERT_TRUE(from_coord.ok()) << from_coord.status().ToString();
    ASSERT_TRUE(from_single.ok()) << from_single.status().ToString();
    size_t coord_tail = from_coord->find("\"nodes\":");
    size_t single_tail = from_single->find("\"nodes\":");
    ASSERT_NE(coord_tail, std::string::npos) << *from_coord;
    ASSERT_NE(single_tail, std::string::npos) << *from_single;
    EXPECT_EQ(from_coord->substr(coord_tail), from_single->substr(single_tail))
        << request;
    saw_di |= from_single->find("\"di\":[{") != std::string::npos;
  }
  EXPECT_TRUE(saw_di);  // the DI replay was exercised, not vacuous

  Stop(coord);
  Stop(single);
  Stop(worker);
}

TEST(CoordinatorTest, LoadAcrossCoordinatorAndWorkersStaysClean) {
  auto worker0 = StartWorker(0);
  auto worker1 = StartWorker(1);
  auto coord =
      StartCoordinator(Endpoint(*worker0) + "," + Endpoint(*worker1));

  LoadOptions options;
  options.host = "127.0.0.1";
  options.port = coord->port();
  // Exercise the multi-endpoint load generator: half the connections
  // drive the coordinator directly, the other half a second address of
  // the same coordinator (the round-robin path of --endpoints).
  options.endpoints = {Endpoint(*coord)};
  options.connections = 4;
  options.requests_per_connection = 25;
  options.queries = {"keyword", "xml database", "search ranking"};
  Result<LoadReport> report = RunLoad(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(report->ok, 100u);
  EXPECT_EQ(report->degraded, 0u);
  // The JSON dump carries the same verdict the smoke scripts consume.
  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"clean\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_ms\":"), std::string::npos) << json;

  Stop(coord);
  Stop(worker0);
  Stop(worker1);
}

}  // namespace
}  // namespace gks
