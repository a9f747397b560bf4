// The node table's entity directory (node_info_table.h) against the
// ancestor walk over NodeInfoTable::Find that it replaced, on indexes made
// by every path that produces one: IndexBuilder, the parallel build, eager
// and mmap loads, the golden v1 file, RT RAM / flushed / merged segments,
// shards and schema reconciliation. DI's owner check (the nested-entity
// walk) and its deferred-path top-m cut are checked against the same
// oracle.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/thread_pool.h"
#include "common/varint.h"
#include "core/di.h"
#include "core/lce.h"
#include "data/figures.h"
#include "data/random_tree_gen.h"
#include "index/parallel_build.h"
#include "index/rt_index.h"
#include "index/serialization.h"
#include "index/shard.h"
#include "schema/schema_summary.h"
#include "tests/test_util.h"
#include "text/analyzer.h"

namespace gks {
namespace {

namespace fs = std::filesystem;

const char kGoldenDir[] = GKS_TEST_SRCDIR "/index/golden";

// A Course whose lone student makes it no entity at instance level, while
// the majority of Course instances are: schema reconciliation promotes it.
constexpr const char* kOutlierXml = R"(<Dept>
  <Area>
    <Name>Databases</Name>
    <Courses>
      <Course>
        <Name>Data Mining</Name>
        <Students><Student>Karen</Student><Student>Mike</Student></Students>
      </Course>
      <Course>
        <Name>Algorithms</Name>
        <Students><Student>John</Student><Student>Julie</Student></Students>
      </Course>
      <Course>
        <Name>Logic</Name>
        <Students><Student>Serena</Student></Students>
      </Course>
    </Courses>
  </Area>
</Dept>)";

// The walk LowestEntityOf did before the directory: one map probe per
// ancestor level, deepest first.
bool OracleLowestEntity(const XmlIndex& index, DeweySpan id,
                        std::vector<uint32_t>* out) {
  for (uint32_t len = id.size; len >= 1; --len) {
    const NodeInfo* info = index.nodes.Find(DeweySpan{id.data, len});
    if (info != nullptr && info->is_entity()) {
      out->assign(id.data, id.data + len);
      return true;
    }
  }
  return false;
}

// DI occurrences of `node` by the old owner check (the oracle walk per
// attribute) and an unmemoized query-term filter.
std::vector<DiContribution> OracleContributions(const XmlIndex& index,
                                                const GksNode& node,
                                                const Query& query,
                                                const DiOptions& options) {
  std::vector<DiContribution> out;
  if (!node.is_lce || node.rank <= 0.0) return out;
  DeweySpan entity = DeweySpan::Of(node.id);
  auto [begin, end] = index.attributes.SubtreeRange(entity);
  end = std::min(end, begin + options.max_attrs_per_node);
  std::vector<uint32_t> owner;
  for (size_t i = begin; i < end; ++i) {
    DeweySpan attr = index.attributes.IdAt(i);
    if (!OracleLowestEntity(index, attr, &owner) ||
        owner != node.id.components()) {
      continue;
    }
    const std::string& value = index.nodes.Value(index.attributes.ValueAt(i));
    bool repeats_query = false;
    for (const std::string& term : text::Analyze(value)) {
      repeats_query = repeats_query || query.ContainsTerm(term);
    }
    if (repeats_query) continue;
    DiContribution contribution;
    contribution.tag = index.nodes.TagName(index.attributes.TagAt(i));
    contribution.value = value;
    for (uint32_t len = entity.size; len <= attr.size; ++len) {
      const NodeInfo* info = index.nodes.Find(DeweySpan{attr.data, len});
      contribution.path.push_back(
          info != nullptr ? index.nodes.TagName(info->tag_id) : "?");
    }
    out.push_back(std::move(contribution));
  }
  return out;
}

bool SameContributions(const std::vector<DiContribution>& a,
                       const std::vector<DiContribution>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tag != b[i].tag || a[i].value != b[i].value ||
        a[i].path != b[i].path) {
      return false;
    }
  }
  return true;
}

// Full-sort DI reference: accumulate the oracle contributions in order,
// sort every key by (weight desc, value, path), cut at top_m.
std::vector<DiKeyword> FullSortDi(
    const std::vector<std::vector<DiContribution>>& per_node,
    const std::vector<GksNode>& nodes, size_t top_m) {
  std::map<std::pair<std::string, std::string>, DiKeyword> keys;
  for (size_t n = 0; n < nodes.size(); ++n) {
    for (const DiContribution& c : per_node[n]) {
      DiKeyword& di = keys[{c.tag, c.value}];
      if (di.support == 0) {
        di.value = c.value;
        di.path = c.path;
      }
      di.weight += nodes[n].rank;
      ++di.support;
    }
  }
  std::vector<DiKeyword> out;
  for (auto& [key, di] : keys) out.push_back(std::move(di));
  std::sort(out.begin(), out.end(), [](const DiKeyword& a, const DiKeyword& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.value != b.value) return a.value < b.value;
    return a.path < b.path;
  });
  if (out.size() > top_m) out.resize(top_m);
  return out;
}

void ExpectSameDi(const std::vector<DiKeyword>& got,
                  const std::vector<DiKeyword>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].value, want[i].value) << i;
    EXPECT_EQ(got[i].path, want[i].path) << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << i;
    EXPECT_EQ(got[i].support, want[i].support) << i;
  }
}

// Checks LowestEntityOf on every node of `index` (and on one id below each
// node that names no element) plus DI on every node taken as an LCE.
// Returns how many entities had another entity nested under them, so
// callers can require DI's nested-entity walk to have run.
size_t ExpectDirectoryMatchesOracle(const XmlIndex& index,
                                    const std::string& label) {
  SCOPED_TRACE(label);
  // The directory is the first thing touched: a lazy table decodes here.
  std::vector<uint32_t> got;
  std::vector<uint32_t> want;
  const uint32_t probe[] = {0, 0};
  EXPECT_EQ(LowestEntityOf(index, DeweySpan{probe, 2}, &got),
            OracleLowestEntity(index, DeweySpan{probe, 2}, &want));
  EXPECT_EQ(index.nodes.entities().size(), index.nodes.counts().entity);

  std::vector<std::vector<uint32_t>> ids;
  index.nodes.ForEach([&](DeweySpan id, const NodeInfo&) {
    ids.emplace_back(id.data, id.data + id.size);
  });
  std::sort(ids.begin(), ids.end());
  EXPECT_FALSE(ids.empty());
  for (std::vector<uint32_t> id : ids) {
    for (int below = 0; below < 2; ++below) {
      if (below == 1) id.push_back(1u << 30);  // names no element
      DeweySpan span{id.data(), static_cast<uint32_t>(id.size())};
      got.clear();
      want.clear();
      bool has = LowestEntityOf(index, span, &got);
      bool same = has == OracleLowestEntity(index, span, &want) &&
                  (!has || got == want);
      EXPECT_TRUE(same) << DeweyId(id).ToString();
      if (!same) return 0;
    }
  }

  // DI: every node as an LCE of positive rank (seven values, so weights
  // tie), through the memoized list builder, the per-node builder and the
  // accumulator, with an attribute cap small enough to cut some subtrees.
  Query query = gks::testing::ParseQueryOrDie("karen k1 databases");
  size_t nested = 0;
  for (size_t cap : {size_t{100000}, size_t{3}}) {
    DiOptions options;
    options.max_attrs_per_node = cap;
    std::vector<GksNode> nodes;
    for (const std::vector<uint32_t>& id : ids) {
      GksNode node;
      node.id = DeweyId(id);
      node.is_lce = true;
      node.rank = 1.0 + static_cast<double>(nodes.size() % 7) / 4;
      nodes.push_back(std::move(node));
    }
    std::vector<std::vector<DiContribution>> memoized =
        ComputeDiContributions(index, nodes, query, options);
    std::vector<std::vector<DiContribution>> oracle;
    for (size_t n = 0; n < nodes.size(); ++n) {
      oracle.push_back(OracleContributions(index, nodes[n], query, options));
      EXPECT_TRUE(SameContributions(memoized[n], oracle.back()))
          << nodes[n].id.ToString();
      EXPECT_TRUE(SameContributions(
          NodeDiContributions(index, nodes[n], query, options),
          oracle.back()))
          << nodes[n].id.ToString();
      DeweySpan span = DeweySpan::Of(nodes[n].id);
      const PackedIds& entities = index.nodes.entities();
      size_t first = entities.SubtreeBegin(span);
      if (cap > 3 && first < entities.size() && entities.At(first) == span &&
          entities.SubtreeEnd(span) - first > 1) {
        ++nested;
      }
    }
    for (size_t top_m : {size_t{1}, size_t{3}, size_t{1000}}) {
      options.top_m = top_m;
      ExpectSameDi(DiscoverDi(index, nodes, query, options),
                   FullSortDi(oracle, nodes, top_m));
    }
  }
  return nested;
}

std::vector<std::pair<std::string, std::string>> Corpus() {
  std::vector<std::pair<std::string, std::string>> docs;
  docs.emplace_back("figure2a.xml", data::Figure2aXml());
  docs.emplace_back("outlier.xml", kOutlierXml);
  for (uint32_t seed = 1; seed <= 4; ++seed) {
    data::RandomTreeOptions options;
    options.seed = seed;
    options.target_nodes = 120;
    docs.emplace_back("random" + std::to_string(seed) + ".xml",
                      data::GenerateRandomTree(options));
  }
  return docs;
}

std::string ScratchDir(const std::string& name) {
  std::string dir = gks::testing::UniqueTempDir() + "entity_dir_" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

TEST(EntityDirectoryTest, IndexBuilderAndParallelBuild) {
  XmlIndex built = gks::testing::BuildIndexFromDocs(Corpus());
  EXPECT_GT(ExpectDirectoryMatchesOracle(built, "IndexBuilder"), 0u);

  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Result<XmlIndex> parallel = BuildIndexParallel(Corpus(), {}, p);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_GT(ExpectDirectoryMatchesOracle(*parallel, "parallel build"), 0u);
  }
}

TEST(EntityDirectoryTest, EagerAndMappedLoads) {
  XmlIndex built = gks::testing::BuildIndexFromDocs(Corpus());
  std::string path = ScratchDir("loads") + "/corpus.gksidx";
  ASSERT_TRUE(SaveIndex(built, path).ok());
  Result<XmlIndex> eager = LoadIndex(path);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_GT(ExpectDirectoryMatchesOracle(*eager, "eager load"), 0u);
  Result<XmlIndex> mapped = LoadIndexMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_GT(ExpectDirectoryMatchesOracle(*mapped, "mmap load"), 0u);
}

TEST(EntityDirectoryTest, GoldenFiles) {
  for (const char* file : {"library_v1.gksidx", "library_v2.gksidx",
                           "library_v2_nobounds.gksidx"}) {
    std::string path = std::string(kGoldenDir) + "/" + file;
    Result<XmlIndex> eager = LoadIndex(path);
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
    ExpectDirectoryMatchesOracle(*eager, std::string(file) + " eager");
    Result<XmlIndex> mapped = LoadIndexMapped(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ExpectDirectoryMatchesOracle(*mapped, std::string(file) + " mmap");
  }
}

TEST(EntityDirectoryTest, RealTimeSegments) {
  RtOptions options;
  options.dir = ScratchDir("rt");
  options.background = false;
  options.fsync = false;
  options.flush_docs = 1u << 20;
  options.flush_bytes = 1ull << 30;
  options.merge_fanout = 2;
  options.compact_every = 2;
  Result<std::unique_ptr<RtIndex>> opened = RtIndex::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RtIndex& rt = **opened;

  std::vector<std::pair<std::string, std::string>> docs = Corpus();
  auto check_snapshot = [&](const std::string& stage) {
    std::shared_ptr<const SegmentSetSnapshot> snapshot = rt.snapshot();
    ASSERT_FALSE(snapshot->segments.empty());
    for (const SegmentView& view : snapshot->segments) {
      ExpectDirectoryMatchesOracle(*view.index, stage + " " + view.label);
    }
  };
  // RAM micro-segments and the compacted RAM segment.
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rt.Insert(docs[i].first, docs[i].second).ok());
  }
  check_snapshot("ram");
  // Two flushed segments, then their merge.
  ASSERT_TRUE(rt.Flush().ok());
  for (size_t i = 3; i < docs.size(); ++i) {
    ASSERT_TRUE(rt.Insert(docs[i].first, docs[i].second).ok());
  }
  ASSERT_TRUE(rt.Flush().ok());
  check_snapshot("flushed");
  ASSERT_TRUE(rt.MaybeMerge().ok());
  EXPECT_EQ(rt.Stats().merges, 1u);
  check_snapshot("merged");
}

TEST(EntityDirectoryTest, Shards) {
  std::string dir = ScratchDir("shards");
  std::vector<std::string> files;
  for (const auto& [name, xml] : Corpus()) {
    files.push_back(dir + "/" + name);
    std::ofstream(files.back()) << xml;
  }
  Result<ShardManifest> manifest = SplitIntoShards(files, 2, dir + "/out");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->shards.size(), 2u);
  for (const ShardSpec& shard : manifest->shards) {
    Result<XmlIndex> index = LoadIndex(dir + "/out/" + shard.file);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ExpectDirectoryMatchesOracle(*index, shard.file);
  }
}

TEST(EntityDirectoryTest, SchemaReconciliation) {
  XmlIndex index = gks::testing::BuildIndexFromXml(kOutlierXml);
  size_t before = index.nodes.entities().size();
  SchemaReconciliation stats =
      ApplySchemaCategorization(SchemaSummary::Build(index), &index);
  ASSERT_GE(stats.promoted_entities, 1u);
  EXPECT_EQ(index.nodes.entities().size(), before + stats.promoted_entities);
  EXPECT_GT(ExpectDirectoryMatchesOracle(index, "reconciled"), 0u);
}

// The directory is filled in the decode pass, which relies on the node
// keys arriving in document order; a section that breaks it is corrupt.
TEST(EntityDirectoryTest, DecodeRejectsNodeKeysOutOfDocumentOrder) {
  // Node section: one tag, no values, entity nodes d0.5 then d0.<second>.
  auto section = [](uint32_t second) {
    std::string bytes;
    PutVarint64(&bytes, 1);
    PutLengthPrefixed(&bytes, "t");
    PutVarint64(&bytes, 0);
    PutVarint64(&bytes, 2);
    for (auto [shared, component] : {std::pair<uint32_t, uint32_t>{0, 5},
                                     {1, second}}) {
      PutVarint32(&bytes, shared);
      PutVarint32(&bytes, shared == 0 ? 2 : 1);
      if (shared == 0) PutVarint32(&bytes, 0);
      PutVarint32(&bytes, component);
      bytes.push_back(static_cast<char>(kFlagEntity));
      PutVarint32(&bytes, 0);  // child count
      PutVarint32(&bytes, 0);  // tag id
      PutVarint32(&bytes, 0);  // no value
    }
    return bytes;
  };
  std::string ordered = section(7);
  std::string_view in = ordered;
  NodeInfoTable table;
  ASSERT_TRUE(NodeInfoTable::DecodeFrom(&in, &table).ok());
  EXPECT_EQ(table.entities().size(), 2u);
  for (uint32_t second : {3u, 5u}) {
    std::string damaged = section(second);
    in = damaged;
    Status status = NodeInfoTable::DecodeFrom(&in, &table);
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << second << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace gks
