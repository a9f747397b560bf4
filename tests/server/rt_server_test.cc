// Real-time server integration (docs/INDEXING.md, docs/SERVER.md):
// insert/delete/flush over the wire against an in-process GksServer in
// --rt mode — commit visibility without reload, write error codes,
// durability across a server restart, reload-as-recovery-drill, and
// reads staying clean under concurrent writes.

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "index/serialization.h"
#include "server/client.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace gks {
namespace {

std::string FreshRtDir(const std::string& name) {
  std::string dir = gks::testing::UniqueTempDir() + "gks_rt_server_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

/// An RT server over a fresh directory (no base index unless given).
std::unique_ptr<GksServer> StartRtServer(const std::string& rt_dir,
                                         std::string index_path = "") {
  ServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.rt_dir = rt_dir;
  config.rt_fsync = false;  // tests exit cleanly; speed over durability
  auto server = std::make_unique<GksServer>(config, std::move(index_path));
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

std::string BookXml(const std::string& word) {
  return "<book><title>" + word + " handbook</title><author>doe</author>"
         "</book>";
}

/// Names of the documents behind the query's response nodes.
std::vector<std::string> QueryDocs(ServerConnection& connection,
                                   const std::string& query) {
  std::vector<std::string> docs;
  Result<JsonValue> response = connection.Query(query);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return docs;
  EXPECT_TRUE(response->Find("ok")->GetBool()) << query;
  for (const JsonValue& node : response->Find("nodes")->items()) {
    docs.push_back(node.Find("doc")->GetString());
  }
  return docs;
}

TEST(RtServerTest, InsertIsSearchableWithoutReloadAndDeleteStops) {
  auto server = StartRtServer(FreshRtDir("roundtrip"));
  ServerConnection connection = ConnectOrDie(*server);

  // An empty RT index answers queries (with nothing) rather than erroring.
  EXPECT_TRUE(QueryDocs(connection, "kayak").empty());

  Result<JsonValue> inserted =
      connection.Insert("kayak.xml", BookXml("kayak"));
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  ASSERT_TRUE(inserted->Find("ok")->GetBool());
  EXPECT_EQ(inserted->Find("status")->GetString(), "inserted");
  EXPECT_EQ(inserted->Find("doc_id")->GetInt(), 0);
  uint64_t epoch = static_cast<uint64_t>(inserted->Find("epoch")->GetInt());
  EXPECT_EQ(epoch, server->epoch());

  // Visible on the very same connection, no flush, no reload.
  EXPECT_EQ(QueryDocs(connection, "kayak"),
            std::vector<std::string>{"kayak.xml"});

  Result<JsonValue> deleted = connection.Remove("kayak.xml");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  ASSERT_TRUE(deleted->Find("ok")->GetBool());
  EXPECT_EQ(deleted->Find("status")->GetString(), "deleted");
  EXPECT_TRUE(deleted->Find("found")->GetBool());
  EXPECT_GT(static_cast<uint64_t>(deleted->Find("epoch")->GetInt()), epoch);

  EXPECT_TRUE(QueryDocs(connection, "kayak").empty());

  // Idempotent: a second delete reports found=false, still ok.
  deleted = connection.Remove("kayak.xml");
  ASSERT_TRUE(deleted.ok());
  EXPECT_TRUE(deleted->Find("ok")->GetBool());
  EXPECT_FALSE(deleted->Find("found")->GetBool());
}

TEST(RtServerTest, WriteErrorCodes) {
  auto server = StartRtServer(FreshRtDir("errors"));
  ServerConnection connection = ConnectOrDie(*server);
  ASSERT_TRUE(connection.Insert("a.xml", BookXml("alpha")).ok());

  Result<JsonValue> dup = connection.Insert("a.xml", BookXml("other"));
  ASSERT_TRUE(dup.ok()) << dup.status().ToString();
  EXPECT_FALSE(dup->Find("ok")->GetBool());
  EXPECT_EQ(dup->Find("error")->GetString(), "doc_exists");

  Result<JsonValue> bad = connection.Insert("bad.xml", "<book><oops>");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->Find("ok")->GetBool());
  EXPECT_EQ(bad->Find("error")->GetString(), "invalid_document");
}

TEST(RtServerTest, StrictWireParsingOfWriteRequests) {
  auto server = StartRtServer(FreshRtDir("strict"));
  ServerConnection connection = ConnectOrDie(*server);
  // Unknown field, missing xml, and a delete with stray fields are all
  // protocol errors — never partially applied writes.
  for (const char* request :
       {R"({"insert":"a.xml","xml":"<a/>","mode":"upsert"})",
        R"({"insert":"a.xml"})",
        R"({"insert":"","xml":"<a/>"})",
        R"({"delete":"a.xml","xml":"<a/>"})",
        R"({"delete":""})"}) {
    SCOPED_TRACE(request);
    Result<JsonValue> response = connection.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->Find("ok")->GetBool());
    EXPECT_EQ(response->Find("error")->GetString(), "bad_request");
  }
  // Nothing was committed by any of the rejects.
  Result<JsonValue> stats = connection.Admin("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("rt")->Find("next_doc_id")->GetInt(), 0);
}

TEST(RtServerTest, ClassicServerRejectsWritesWithRtDisabled) {
  // A server started the classic way (index file, no --rt).
  XmlIndex index = gks::testing::BuildIndexFromXml(BookXml("static"));
  std::string path =
      gks::testing::UniqueTempDir() + "gks_rt_server_classic.gksidx";
  ASSERT_TRUE(SaveIndex(index, path).ok());
  ServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  auto server = std::make_unique<GksServer>(config, path);
  ASSERT_TRUE(server->Start().ok());
  ServerConnection connection = ConnectOrDie(*server);

  for (Result<JsonValue> response :
       {connection.Insert("a.xml", BookXml("alpha")),
        connection.Remove("a.xml"), connection.Admin("flush")}) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->Find("ok")->GetBool());
    EXPECT_EQ(response->Find("error")->GetString(), "rt_disabled");
  }
}

TEST(RtServerTest, FlushVerbAndRtStatsPayload) {
  auto server = StartRtServer(FreshRtDir("flush"));
  ServerConnection connection = ConnectOrDie(*server);
  ASSERT_TRUE(connection.Insert("a.xml", BookXml("alpha")).ok());
  ASSERT_TRUE(connection.Insert("b.xml", BookXml("beta")).ok());

  Result<JsonValue> stats = connection.Admin("stats");
  ASSERT_TRUE(stats.ok());
  const JsonValue* rt = stats->Find("rt");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->Find("live_docs")->GetInt(), 2);
  EXPECT_EQ(rt->Find("ram_docs")->GetInt(), 2);
  EXPECT_EQ(rt->Find("disk_segments")->GetInt(), 0);

  Result<JsonValue> flushed = connection.Admin("flush");
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  ASSERT_TRUE(flushed->Find("ok")->GetBool());
  EXPECT_EQ(flushed->Find("status")->GetString(), "flushed");

  stats = connection.Admin("stats");
  ASSERT_TRUE(stats.ok());
  rt = stats->Find("rt");
  EXPECT_EQ(rt->Find("ram_docs")->GetInt(), 0);
  EXPECT_GE(rt->Find("disk_segments")->GetInt(), 1);
  EXPECT_GE(rt->Find("flushes")->GetInt(), 1);
  // Flushing changes nothing about visibility.
  EXPECT_EQ(QueryDocs(connection, "alpha"),
            std::vector<std::string>{"a.xml"});
}

TEST(RtServerTest, CommittedWritesSurviveAServerRestart) {
  std::string dir = FreshRtDir("restart");
  {
    auto server = StartRtServer(dir);
    ServerConnection connection = ConnectOrDie(*server);
    ASSERT_TRUE(connection.Insert("keep.xml", BookXml("sturdy")).ok());
    ASSERT_TRUE(connection.Insert("drop.xml", BookXml("flimsy")).ok());
    Result<JsonValue> deleted = connection.Remove("drop.xml");
    ASSERT_TRUE(deleted.ok());
    EXPECT_TRUE(deleted->Find("found")->GetBool());
    server->RequestShutdown();
    server->Wait();
    // No flush ever ran: the new process must recover from the WAL.
  }
  auto server = StartRtServer(dir);
  ServerConnection connection = ConnectOrDie(*server);
  EXPECT_EQ(QueryDocs(connection, "sturdy"),
            std::vector<std::string>{"keep.xml"});
  EXPECT_TRUE(QueryDocs(connection, "flimsy").empty());
  Result<JsonValue> stats = connection.Admin("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->Find("rt")->Find("replayed_records")->GetInt(), 3);
  // And the recovered server takes new writes.
  ASSERT_TRUE(connection.Insert("more.xml", BookXml("fresh")).ok());
  EXPECT_EQ(QueryDocs(connection, "fresh"),
            std::vector<std::string>{"more.xml"});
}

TEST(RtServerTest, BaseIndexPlusRtWrites) {
  XmlIndex base = gks::testing::BuildIndexFromDocs({
      {"base.xml", BookXml("bedrock")},
  });
  std::string base_path =
      gks::testing::UniqueTempDir() + "gks_rt_server_base.gksidx";
  ASSERT_TRUE(SaveIndex(base, base_path).ok());

  auto server = StartRtServer(FreshRtDir("base"), base_path);
  ServerConnection connection = ConnectOrDie(*server);
  EXPECT_EQ(QueryDocs(connection, "bedrock"),
            std::vector<std::string>{"base.xml"});
  ASSERT_TRUE(connection.Insert("new.xml", BookXml("topsoil")).ok());
  EXPECT_EQ(QueryDocs(connection, "topsoil"),
            std::vector<std::string>{"new.xml"});
  // Base documents delete like RT ones (tombstone-masked).
  Result<JsonValue> deleted = connection.Remove("base.xml");
  ASSERT_TRUE(deleted.ok());
  EXPECT_TRUE(deleted->Find("found")->GetBool());
  EXPECT_TRUE(QueryDocs(connection, "bedrock").empty());
}

TEST(RtServerTest, ReloadIsARecoveryDrillNotAnOutage) {
  auto server = StartRtServer(FreshRtDir("reload"));
  ServerConnection connection = ConnectOrDie(*server);
  ASSERT_TRUE(connection.Insert("a.xml", BookXml("alpha")).ok());

  Result<JsonValue> reloaded = connection.Admin("reload");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_TRUE(reloaded->Find("ok")->GetBool()) << reloaded->Find("error")
                                                      ->GetString();
  EXPECT_EQ(reloaded->Find("status")->GetString(), "reloaded");

  // State survived the close-and-reopen, and writes keep working.
  EXPECT_EQ(QueryDocs(connection, "alpha"),
            std::vector<std::string>{"a.xml"});
  ASSERT_TRUE(connection.Insert("b.xml", BookXml("beta")).ok());
  EXPECT_EQ(QueryDocs(connection, "beta"),
            std::vector<std::string>{"b.xml"});

  // An RT server is bound to its --rt directory; retargeting by path is
  // a config change, not a reload.
  Result<JsonValue> retarget = connection.Admin("reload", "/tmp/other.gksidx");
  ASSERT_TRUE(retarget.ok());
  EXPECT_FALSE(retarget->Find("ok")->GetBool());
  EXPECT_EQ(retarget->Find("error")->GetString(), "reload_failed");
}

TEST(RtServerTest, QueriesStayCleanUnderConcurrentWrites) {
  auto server = StartRtServer(FreshRtDir("concurrent"));
  {
    ServerConnection seed = ConnectOrDie(*server);
    ASSERT_TRUE(seed.Insert("seed.xml", BookXml("anchor")).ok());
  }

  std::atomic<bool> stop{false};
  std::thread writer([&server, &stop] {
    ServerConnection connection = ConnectOrDie(*server);
    for (int i = 0; !stop.load(); ++i) {
      std::string name = "w" + std::to_string(i) + ".xml";
      Result<JsonValue> inserted =
          connection.Insert(name, BookXml("anchor extra"));
      ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
      ASSERT_TRUE(inserted->Find("ok")->GetBool());
      if (i % 3 == 2) {
        Result<JsonValue> deleted = connection.Remove(name);
        ASSERT_TRUE(deleted.ok());
      }
    }
  });

  LoadOptions load;
  load.port = server->port();
  load.connections = 4;
  load.requests_per_connection = 50;
  load.queries = {"anchor", "handbook", "anchor extra"};
  Result<LoadReport> report = RunLoad(load);
  stop.store(true);
  writer.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
  // Epochs advanced mid-run: reads really did overlap commits.
  EXPECT_GT(report->epochs_seen.size(), 1u) << report->ToString();
}

}  // namespace
}  // namespace gks
