#ifndef GKS_TESTS_TEST_UTIL_H_
#define GKS_TESTS_TEST_UTIL_H_

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "gtest/gtest.h"
#include "core/query.h"
#include "core/searcher.h"
#include "index/index_builder.h"
#include "index/xml_index.h"

namespace gks::testing {

/// This process's own scratch directory, with a trailing '/': created on
/// first use under ::testing::TempDir() and removed at exit. Use it for
/// every file a test writes. `ctest -j` runs test binaries concurrently,
/// so a fixed path under the shared temp root would be rewritten by one
/// process while another still has it open or mapped.
inline const std::string& UniqueTempDir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string pattern = ::testing::TempDir();
      if (pattern.empty() || pattern.back() != '/') pattern += '/';
      pattern += "gks_test_XXXXXX";
      if (::mkdtemp(pattern.data()) == nullptr) {
        std::perror("mkdtemp");
        std::abort();
      }
      path = pattern + "/";
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// Builds an index over one in-memory document, failing the test on error.
inline XmlIndex BuildIndexFromXml(std::string_view xml,
                                  std::string name = "test.xml") {
  IndexBuilder builder;
  Status status = builder.AddDocument(xml, std::move(name));
  EXPECT_TRUE(status.ok()) << status.ToString();
  Result<XmlIndex> index = std::move(builder).Finalize();
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

/// Builds an index over several named documents.
inline XmlIndex BuildIndexFromDocs(
    const std::vector<std::pair<std::string, std::string>>& docs) {
  IndexBuilder builder;
  for (const auto& [name, xml] : docs) {
    Status status = builder.AddDocument(xml, name);
    EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
  }
  Result<XmlIndex> index = std::move(builder).Finalize();
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

/// Parses a query, failing the test on error.
inline Query ParseQueryOrDie(std::string_view text) {
  Result<Query> query = Query::Parse(text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return std::move(query).value();
}

/// Runs a search, failing the test on error.
inline SearchResponse SearchOrDie(const XmlIndex& index, std::string_view text,
                                  const SearchOptions& options = {}) {
  GksSearcher searcher(&index);
  Result<SearchResponse> response = searcher.Search(text, options);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return std::move(response).value();
}

/// Dewey ids of a response, as printable strings, in rank order.
inline std::vector<std::string> NodeIds(const SearchResponse& response) {
  std::vector<std::string> ids;
  for (const GksNode& node : response.nodes) ids.push_back(node.id.ToString());
  return ids;
}

/// Finds the response node with the given printable id; nullptr if absent.
inline const GksNode* FindNode(const SearchResponse& response,
                               std::string_view id) {
  for (const GksNode& node : response.nodes) {
    if (node.id.ToString() == id) return &node;
  }
  return nullptr;
}

}  // namespace gks::testing

#endif  // GKS_TESTS_TEST_UTIL_H_
