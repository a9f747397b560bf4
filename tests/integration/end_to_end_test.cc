// End-to-end runs over the synthetic corpora: build, categorize, search,
// rank, DI, save/load, multi-document.

#include <set>
#include <string>

#include "gtest/gtest.h"
#include "core/searcher.h"
#include "data/dblp_gen.h"
#include "data/mondial_gen.h"
#include "data/nasa_gen.h"
#include "data/plays_gen.h"
#include "data/protein_gen.h"
#include "data/sigmod_gen.h"
#include "data/treebank_gen.h"
#include "index/serialization.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromDocs;
using gks::testing::BuildIndexFromXml;
using gks::testing::SearchOrDie;

TEST(EndToEndDblp, AuthorQueryReturnsArticlesRankedByCoAuthorship) {
  data::DblpOptions options;
  options.articles = 2000;
  XmlIndex index = BuildIndexFromXml(data::GenerateDblp(options), "dblp.xml");

  // Article entries with >= 2 authors must be entity nodes.
  EXPECT_GT(index.nodes.counts().entity, 0u);

  SearchOptions search;
  search.s = 1;
  SearchResponse response =
      SearchOrDie(index, "\"Peter Buneman\" \"Wenfei Fan\"", search);
  ASSERT_FALSE(response.nodes.empty());

  // Example 2's ranking property: nodes containing both authors outrank
  // single-author matches.
  uint32_t best = response.nodes[0].keyword_count;
  for (const GksNode& node : response.nodes) {
    EXPECT_LE(node.keyword_count, best);
  }
  // All results are depth-1 entries under the dblp root (LCE articles).
  for (const GksNode& node : response.nodes) {
    EXPECT_EQ(node.id.components().size(), 3u) << node.id.ToString();
  }
}

TEST(EndToEndDblp, DiSurfacesYearsAndVenues) {
  data::DblpOptions options;
  options.articles = 2000;
  XmlIndex index = BuildIndexFromXml(data::GenerateDblp(options), "dblp.xml");
  SearchOptions search;
  search.s = 1;
  search.di_top_m = 10;
  SearchResponse response =
      SearchOrDie(index, "\"Peter Buneman\" \"Wenfei Fan\"", search);
  ASSERT_FALSE(response.insights.empty());
  // DI paths label values with schema elements of the article entries.
  std::set<std::string> tags;
  for (const DiKeyword& di : response.insights) {
    ASSERT_FALSE(di.path.empty());
    tags.insert(di.path.back());
  }
  // Expect at least one of the article attributes to surface.
  bool plausible = tags.count("year") || tags.count("journal") ||
                   tags.count("booktitle") || tags.count("title") ||
                   tags.count("author") || tags.count("volume") ||
                   tags.count("pages");
  EXPECT_TRUE(plausible);
}

TEST(EndToEndMondial, ReligionQueryFindsCountries) {
  XmlIndex index =
      BuildIndexFromXml(data::GenerateMondial(), "mondial.xml");
  SearchOptions search;
  search.s = 2;
  SearchResponse response = SearchOrDie(index, "country Muslim", search);
  ASSERT_FALSE(response.nodes.empty());
  // country matches the tag of every <country>, Muslim its religion name:
  // responses should be country-level entities.
  for (const GksNode& node : response.nodes) {
    const NodeInfo* info = index.nodes.Find(node.id);
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(info->is_entity()) << node.id.ToString();
  }
}

TEST(EndToEndPlays, MultiFileSearchSpansDocuments) {
  data::PlaysOptions options;
  options.plays = 4;
  XmlIndex index = BuildIndexFromDocs(data::GeneratePlays(options));
  EXPECT_EQ(index.catalog.document_count(), 4u);

  SearchOptions search;
  search.s = 1;
  SearchResponse response = SearchOrDie(index, "HAMLET", search);
  ASSERT_FALSE(response.nodes.empty());
  std::set<uint32_t> docs;
  for (const GksNode& node : response.nodes) docs.insert(node.id.doc_id());
  EXPECT_GT(docs.size(), 1u) << "results must span documents";
}

TEST(EndToEndProteins, EntryQueriesWork) {
  XmlIndex swiss = BuildIndexFromXml(data::GenerateSwissProt(
      data::SwissProtOptions{.entries = 500, .seed = 17}));
  SearchOptions search;
  search.s = 2;
  SearchResponse response = SearchOrDie(swiss, "kinase domain", search);
  EXPECT_FALSE(response.nodes.empty());

  XmlIndex interpro = BuildIndexFromXml(data::GenerateInterPro(
      data::InterProOptions{.entries = 500, .seed = 19}));
  SearchResponse qi1 = SearchOrDie(interpro, "Kringle Domain", search);
  EXPECT_FALSE(qi1.nodes.empty());
  SearchResponse qi2 = SearchOrDie(interpro, "publication 2002 Science",
                                   SearchOptions{.s = 2});
  EXPECT_FALSE(qi2.nodes.empty());
}

TEST(EndToEndTreebank, DeepDocumentsIndexAndSearch) {
  data::TreebankOptions options;
  options.sentences = 400;
  options.max_depth = 30;
  XmlIndex index = BuildIndexFromXml(data::GenerateTreebank(options));
  EXPECT_GE(index.catalog.MaxDepth(), 25u);
  SearchOptions search;
  search.s = 2;
  SearchResponse response = SearchOrDie(index, "market shares", search);
  EXPECT_FALSE(response.nodes.empty());
}

TEST(EndToEndNasa, DeeperKeywordsStillRankCorrectly) {
  XmlIndex index = BuildIndexFromXml(
      data::GenerateNasa(data::NasaOptions{.datasets = 300, .seed = 29}));
  SearchOptions search;
  search.s = 1;
  SearchResponse response = SearchOrDie(index, "galaxy redshift", search);
  ASSERT_FALSE(response.nodes.empty());
  for (const GksNode& node : response.nodes) {
    EXPECT_GT(node.rank, 0.0);
  }
}

TEST(EndToEndSigmod, SaveLoadServeCycle) {
  XmlIndex index = BuildIndexFromXml(data::GenerateSigmodRecord(
      data::SigmodOptions{.issues = 20, .seed = 11}));
  std::string path = gks::testing::UniqueTempDir() + "gks_sigmod.idx";
  ASSERT_TRUE(SaveIndex(index, path).ok());
  Result<XmlIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok());

  SearchOptions search;
  search.s = 1;
  SearchResponse before = SearchOrDie(index, "Codd Gray", search);
  SearchResponse after = SearchOrDie(*loaded, "Codd Gray", search);
  ASSERT_EQ(before.nodes.size(), after.nodes.size());
  for (size_t i = 0; i < before.nodes.size(); ++i) {
    EXPECT_EQ(before.nodes[i].id, after.nodes[i].id);
  }
}

TEST(EndToEndHybrid, MergedCorporaAnswerHybridQueries) {
  // Sec. 7.6: DBLP + SIGMOD Record under one index; keywords target two
  // different entity types; GKS returns both without confusion.
  XmlIndex index = BuildIndexFromDocs(
      {{"dblp.xml",
        data::GenerateDblp(data::DblpOptions{.articles = 1500, .seed = 7})},
       {"sigmod.xml", data::GenerateSigmodRecord(
                          data::SigmodOptions{.issues = 40, .seed = 11})}});
  SearchOptions search;
  search.s = 1;
  SearchResponse response = SearchOrDie(index, "\"Codd\" \"Rowe\"", search);
  ASSERT_FALSE(response.nodes.empty());
  std::set<uint32_t> docs;
  for (const GksNode& node : response.nodes) docs.insert(node.id.doc_id());
  EXPECT_EQ(docs.size(), 2u) << "both corpora must contribute results";
}

}  // namespace
}  // namespace gks
