// Focused unit tests for the individual pipeline stages: merged list
// construction (incl. phrase intersection), window scanning edge cases,
// pruning shapes, DI options, and the searcher's option handling.

#include <algorithm>
#include <bit>
#include <random>

#include "gtest/gtest.h"
#include "core/di.h"
#include "core/merged_list.h"
#include "core/probe_eval.h"
#include "core/searcher.h"
#include "core/window_scan.h"
#include "data/figures.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromXml;
using gks::testing::ParseQueryOrDie;
using gks::testing::SearchOrDie;

class MergedListUnits : public ::testing::Test {
 protected:
  void SetUp() override {
    index_ = BuildIndexFromXml(
        "<r>"
        "<a>red fox</a>"
        "<a>red wolf</a>"
        "<b>fox</b>"
        "</r>");
  }
  XmlIndex index_;
};

TEST_F(MergedListUnits, SingleTermAtoms) {
  MergedList sl = MergedList::Build(index_, ParseQueryOrDie("red fox"));
  // red: 2 postings; fox: 2 postings -> 4 entries, document order.
  ASSERT_EQ(sl.size(), 4u);
  EXPECT_EQ(sl.atom_list_sizes(), (std::vector<size_t>{2, 2}));
  EXPECT_EQ(sl.present_atoms(), 0b11ull);
  for (size_t i = 1; i < sl.size(); ++i) {
    EXPECT_LE(sl.IdAt(i - 1).Compare(sl.IdAt(i)), 0);
  }
}

TEST_F(MergedListUnits, PhraseIntersectsTokens) {
  // "red fox" as a phrase: both tokens at the same node -> only the first
  // <a> qualifies.
  MergedList sl = MergedList::Build(index_, ParseQueryOrDie("\"red fox\""));
  ASSERT_EQ(sl.size(), 1u);
  EXPECT_EQ(sl.IdAt(0).ToDeweyId().ToString(), "d0.0.0");
}

TEST_F(MergedListUnits, PhraseWithAbsentTokenIsEmpty) {
  MergedList sl =
      MergedList::Build(index_, ParseQueryOrDie("\"red zebra\""));
  EXPECT_TRUE(sl.empty());
  EXPECT_EQ(sl.present_atoms(), 0u);
}

TEST_F(MergedListUnits, MissingAtomLeavesGapInPresentMask) {
  MergedList sl =
      MergedList::Build(index_, ParseQueryOrDie("red zebra fox"));
  EXPECT_EQ(sl.present_atoms(), 0b101ull);
  EXPECT_EQ(sl.atom_list_sizes()[1], 0u);
}

TEST_F(MergedListUnits, SubtreeMaskAndRange) {
  MergedList sl = MergedList::Build(index_, ParseQueryOrDie("red fox wolf"));
  DeweyId root = *DeweyId::Parse("0.0");
  EXPECT_EQ(sl.SubtreeMask(DeweySpan::Of(root)), 0b111ull);
  DeweyId first_a = *DeweyId::Parse("0.0.0");
  EXPECT_EQ(sl.SubtreeMask(DeweySpan::Of(first_a)), 0b011ull);  // red+fox
  auto [begin, end] = sl.SubtreeRange(DeweySpan::Of(first_a));
  EXPECT_EQ(end - begin, 2u);
}

TEST(WindowScanUnits, SGreaterThanDistinctAtomsYieldsNothing) {
  XmlIndex index = BuildIndexFromXml("<r><a>x</a><a>y</a></r>");
  MergedList sl = MergedList::Build(index, ParseQueryOrDie("x y"));
  EXPECT_TRUE(ComputeLcpCandidates(sl, 3).empty());
  EXPECT_TRUE(ComputeLcpCandidates(sl, 0).empty());
}

TEST(WindowScanUnits, SEqualsOneCandidatesAreOccurrences) {
  XmlIndex index = BuildIndexFromXml("<r><a>x</a><b>x y</b></r>");
  MergedList sl = MergedList::Build(index, ParseQueryOrDie("x y"));
  std::vector<LcpCandidate> candidates = ComputeLcpCandidates(sl, 1);
  // Occurrence nodes: <a> (x), <b> (x and y — one candidate, two windows).
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].node.ToString(), "d0.0.0");
  EXPECT_EQ(candidates[0].window_count, 1u);
  EXPECT_EQ(candidates[1].node.ToString(), "d0.0.1");
  EXPECT_EQ(candidates[1].window_count, 2u);
}

TEST(WindowScanUnits, DuplicateKeywordsExtendTheWindow) {
  // x x x y: the first window covering {x, y} spans all four entries.
  XmlIndex index =
      BuildIndexFromXml("<r><a>x</a><a>x</a><a>x</a><a>y</a></r>");
  MergedList sl = MergedList::Build(index, ParseQueryOrDie("x y"));
  std::vector<LcpCandidate> candidates = ComputeLcpCandidates(sl, 2);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].node.ToString(), "d0.0");  // the shared root
  // One window per left end that can still reach both keywords: l=0..2
  // (the window starting at y itself never sees a second keyword).
  EXPECT_EQ(candidates[0].window_count, 3u);
}

TEST(WindowScanUnits, PruneKeepsAncestorWithExtraKeyword) {
  // Ancestor r covers {x, y, z}; its only candidate descendant covers
  // {x, y}: r contributes z and must survive pruning.
  XmlIndex index = BuildIndexFromXml(
      "<r><inner><a>x</a><a>y</a></inner><b>z</b></r>");
  MergedList sl = MergedList::Build(index, ParseQueryOrDie("x y z"));
  std::vector<LcpCandidate> pruned =
      PruneCoveredAncestors(sl, ComputeLcpCandidates(sl, 2));
  bool has_root = false;
  for (const LcpCandidate& candidate : pruned) {
    if (candidate.node.ToString() == "d0.0") has_root = true;
  }
  EXPECT_TRUE(has_root);
}

TEST(WindowScanUnits, PruneIsNoOpWithoutNesting) {
  XmlIndex index = BuildIndexFromXml("<r><a>x</a><b>y</b></r>");
  MergedList sl = MergedList::Build(index, ParseQueryOrDie("x y"));
  std::vector<LcpCandidate> raw = ComputeLcpCandidates(sl, 1);
  std::vector<LcpCandidate> pruned = PruneCoveredAncestors(sl, raw);
  EXPECT_EQ(pruned.size(), raw.size());
}

TEST(DiUnits, TopMLimitsOutput) {
  XmlIndex index = BuildIndexFromXml(data::Figure2aXml());
  SearchOptions options;
  options.s = 1;
  options.di_top_m = 1;
  SearchResponse response =
      SearchOrDie(index, "karen mike john julie serena", options);
  EXPECT_EQ(response.insights.size(), 1u);
}

TEST(DiUnits, MaxAttrsPerNodeCapsScan) {
  XmlIndex index = BuildIndexFromXml(data::Figure2aXml());
  Query query = ParseQueryOrDie("karen mike");
  GksSearcher searcher(&index);
  SearchOptions search;
  search.s = 1;
  Result<SearchResponse> response = searcher.Search(query, search);
  ASSERT_TRUE(response.ok());

  DiOptions capped;
  capped.max_attrs_per_node = 1;
  std::vector<DiKeyword> di =
      DiscoverDi(index, response->nodes, query, capped);
  DiOptions uncapped;
  std::vector<DiKeyword> full =
      DiscoverDi(index, response->nodes, query, uncapped);
  EXPECT_LE(di.size(), full.size());
}

TEST(SearcherUnits, MaxResultsTruncatesAfterRanking) {
  XmlIndex index = BuildIndexFromXml(data::Figure2aXml());
  SearchOptions all;
  all.s = 1;
  SearchResponse full = SearchOrDie(index, "karen mike john", all);
  ASSERT_GT(full.nodes.size(), 1u);

  SearchOptions top1 = all;
  top1.max_results = 1;
  SearchResponse truncated = SearchOrDie(index, "karen mike john", top1);
  ASSERT_EQ(truncated.nodes.size(), 1u);
  EXPECT_EQ(truncated.nodes[0].id, full.nodes[0].id);
}

TEST(SearcherUnits, DisablingDiAndRefinements) {
  XmlIndex index = BuildIndexFromXml(data::Figure2aXml());
  SearchOptions options;
  options.s = 1;
  options.discover_di = false;
  options.suggest_refinements = false;
  SearchResponse response = SearchOrDie(index, "karen mike", options);
  EXPECT_TRUE(response.insights.empty());
  EXPECT_TRUE(response.refinements.empty());
  EXPECT_FALSE(response.nodes.empty());
}

TEST(SearcherUnits, InvalidQueryPropagates) {
  XmlIndex index = BuildIndexFromXml("<r><a>x</a></r>");
  GksSearcher searcher(&index);
  Result<SearchResponse> response = searcher.Search("\"unterminated");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(SearcherUnits, SIsClampedToQuerySize) {
  XmlIndex index = BuildIndexFromXml("<r><a>x</a><a>y</a></r>");
  SearchOptions options;
  options.s = 99;
  SearchResponse response = SearchOrDie(index, "x y", options);
  EXPECT_EQ(response.effective_s, 2u);
}

// Sorted, duplicate-free random Dewey ids. `dense` makes long runs that
// share all but the last component, so lcps with a probe path run deep.
PackedIds RandomSortedIds(std::mt19937* rng, size_t count, uint32_t max_depth,
                          uint32_t max_component, bool dense) {
  std::vector<std::vector<uint32_t>> ids;
  std::uniform_int_distribution<uint32_t> depth_dist(1, max_depth);
  std::uniform_int_distribution<uint32_t> comp_dist(0, max_component);
  if (dense) {
    std::vector<uint32_t> id(depth_dist(*rng));
    for (uint32_t& c : id) c = comp_dist(*rng) % 1000;
    std::uniform_int_distribution<uint32_t> step(1, 120);
    for (size_t i = 0; i < count; ++i) {
      id.back() += step(*rng);
      ids.push_back(id);
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      std::vector<uint32_t> id(depth_dist(*rng));
      for (uint32_t& c : id) c = comp_dist(*rng);
      ids.push_back(std::move(id));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  PackedIds packed;
  for (const std::vector<uint32_t>& id : ids) {
    packed.Add(DeweySpan{id.data(), static_cast<uint32_t>(id.size())});
  }
  return packed;
}

// The probe evaluator's depth counts: random sorted lists, random probe
// paths and intervals, diffed against a from-first-principles reference
// (per-id longest common prefix with the path).
TEST(ProbeEvalUnits, CountDepthPrefixesMatchesOracle) {
  std::mt19937 rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    PackedIds ids = RandomSortedIds(&rng, 1 + rng() % 300, 1 + rng() % 10,
                                    1u << (1 + rng() % 8), trial % 3 == 0);
    if (ids.empty()) continue;
    const size_t lo = rng() % ids.size();
    const size_t hi = lo + rng() % (ids.size() - lo + 1);
    const uint32_t depth = 1 + rng() % 12;
    std::vector<uint32_t> path(depth);
    if (trial % 2 == 0) {
      // Probe with a real id's components (padded if shorter): hits the
      // equal-prefix branches.
      DeweySpan sample = ids.At(rng() % ids.size());
      for (uint32_t d = 0; d < depth; ++d) {
        path[d] = d < sample.size ? sample.data[d] : rng() % 4;
      }
    } else {
      for (uint32_t& c : path) c = rng() % 8;
    }

    std::vector<uint64_t> reference(depth + 1, 0);
    for (size_t j = lo; j < hi; ++j) {
      DeweySpan id = ids.At(j);
      uint32_t lcp = 0;
      while (lcp < depth && lcp < id.size && id.data[lcp] == path[lcp]) {
        ++lcp;
      }
      for (uint32_t d = 1; d <= lcp; ++d) ++reference[d];
    }

    std::vector<uint64_t> totals(depth + 1, 0);
    CountDepthPrefixes(ids, lo, hi, DeweySpan{path.data(), depth},
                       totals.data());
    EXPECT_EQ(totals, reference) << "trial " << trial << " depth=" << depth;
  }
}

}  // namespace
}  // namespace gks
