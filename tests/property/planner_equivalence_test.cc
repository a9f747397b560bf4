// Output-identity property suite for the query planner: every execution
// strategy (merge, probe, hybrid, auto) over every storage backend (eager
// PackedIds, mmap'd block postings) must produce byte-identical responses
// — same nodes, same ranks, same masks, same diagnostics counts — on
// randomized corpora, queries and thresholds s. The probe evaluator is a
// completely different algorithm from the k-way merge (seek-driven end
// events instead of a streamed S_L), so this is the contract that lets
// the planner switch freely at query time.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "baseline/naive_gks.h"
#include "common/simd/kernels.h"
#include "core/searcher.h"
#include "data/random_tree_gen.h"
#include "index/serialization.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromDocs;

class PlannerEquivalence : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    // Two documents so candidate subtrees span catalog entries and the
    // probe evaluator's per-list boundary seeks cross document borders.
    std::vector<std::pair<std::string, std::string>> docs;
    for (uint32_t doc = 0; doc < 2; ++doc) {
      data::RandomTreeOptions options;
      options.seed = GetParam() * 2 + doc;
      options.target_nodes = 150 + (GetParam() % 4) * 70;
      options.max_depth = 4 + GetParam() % 4;
      docs.emplace_back("doc" + std::to_string(doc) + ".xml",
                        data::GenerateRandomTree(options));
    }
    eager_ = BuildIndexFromDocs(docs);

    // Round-trip through the v2 block format and the zero-copy loader so
    // probe seeks exercise the block skip-table/decode-cache backend.
    std::string path = gks::testing::UniqueTempDir() + "/planner_eq_" +
                       std::to_string(GetParam()) + ".idx";
    ASSERT_TRUE(SaveIndex(eager_, path).ok());
    Result<XmlIndex> mapped = LoadIndexMapped(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    mapped_ = std::move(mapped).value();
  }

  SearchResponse Run(const XmlIndex& index, const std::string& text,
                     uint32_t s, PlanMode plan) {
    GksSearcher searcher(&index);
    SearchOptions options;
    options.s = s;
    options.discover_di = false;
    options.suggest_refinements = false;
    options.plan = plan;
    Result<SearchResponse> response = searcher.Search(text, options);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return std::move(response).value();
  }

  // Full observable identity, not just node ids: ranks are FP-order
  // sensitive (the probe path must reproduce the exact merge order inside
  // every response subtree) and the diagnostics counts are the paper's
  // complexity measures.
  void ExpectIdentical(const SearchResponse& expected,
                       const SearchResponse& actual,
                       const std::string& label) {
    EXPECT_EQ(actual.effective_s, expected.effective_s) << label;
    EXPECT_EQ(actual.merged_list_size, expected.merged_list_size) << label;
    EXPECT_EQ(actual.candidate_count, expected.candidate_count) << label;
    EXPECT_EQ(actual.lce_count, expected.lce_count) << label;
    ASSERT_EQ(actual.nodes.size(), expected.nodes.size()) << label;
    for (size_t i = 0; i < expected.nodes.size(); ++i) {
      const GksNode& want = expected.nodes[i];
      const GksNode& got = actual.nodes[i];
      EXPECT_EQ(got.id, want.id) << label << " node " << i;
      EXPECT_EQ(got.keyword_mask, want.keyword_mask) << label << " node " << i;
      EXPECT_EQ(got.keyword_count, want.keyword_count)
          << label << " node " << i;
      EXPECT_EQ(got.is_lce, want.is_lce) << label << " node " << i;
      // Bit-identical, not approximately equal: same summation order.
      EXPECT_DOUBLE_EQ(got.rank, want.rank) << label << " node " << i;
    }
  }

  XmlIndex eager_;
  XmlIndex mapped_;
};

TEST_P(PlannerEquivalence, AllStrategiesAndBackendsAgree) {
  // Keyword-only, tag-constrained, and phrase atoms: the constrained
  // shapes force the evaluator through its materialized-atom path.
  const std::vector<std::string> queries = {
      "k0 k1 k2 k3",
      "k" + std::to_string(GetParam() % 8) + " k" +
          std::to_string((GetParam() + 3) % 8) + " k" +
          std::to_string((GetParam() + 5) % 8),
      "t1:k2 k4 k6",
      "\"k1 k3\" k0 k5",
  };
  for (const std::string& text : queries) {
    for (uint32_t s = 1; s <= 4; ++s) {
      SearchResponse expected = Run(eager_, text, s, PlanMode::kMerge);
      for (PlanMode plan : {PlanMode::kProbe, PlanMode::kHybrid,
                            PlanMode::kAuto}) {
        char label[128];
        std::snprintf(label, sizeof(label), "'%s' s=%u plan=%s", text.c_str(),
                      s, PlanModeName(plan));
        ExpectIdentical(expected, Run(eager_, text, s, plan),
                        std::string("eager ") + label);
        ExpectIdentical(expected, Run(mapped_, text, s, plan),
                        std::string("mapped ") + label);
      }
      ExpectIdentical(expected, Run(mapped_, text, s, PlanMode::kMerge),
                      "mapped '" + text + "' merge");
    }
  }
}

// Top-k must be invisible except for the truncation: for every strategy,
// both backends, every k, and both sides of the planner's scan floor
// (floor 0 engages the block-max evaluator for any non-empty anchor set;
// UINT64_MAX forces the full-scoring-then-truncate path), the k returned
// nodes are bit-identical to the full response's first k (same order,
// same ranks) — including k = 1 and k past the end of the result list.
// This is the property that makes `--top-k` safe to enable anywhere and
// the floor heuristic free to move.
TEST_P(PlannerEquivalence, TopKMatchesFullScoringThenTruncate) {
  const std::vector<std::string> queries = {
      "k0 k1 k2 k3",
      "t1:k2 k4 k6",
      "\"k1 k3\" k0 k5",
  };
  for (const std::string& text : queries) {
    for (uint32_t s = 1; s <= 3; ++s) {
      SearchResponse full = Run(eager_, text, s, PlanMode::kMerge);
      const uint32_t past_end = static_cast<uint32_t>(full.nodes.size()) + 7;
      for (uint32_t k : {1u, 3u, past_end}) {
        for (PlanMode plan : {PlanMode::kMerge, PlanMode::kProbe,
                              PlanMode::kHybrid, PlanMode::kAuto}) {
          for (const XmlIndex* index : {&eager_, &mapped_}) {
            for (uint64_t floor : {uint64_t{0}, UINT64_MAX}) {
              GksSearcher searcher(index);
              SearchOptions options;
              options.s = s;
              options.discover_di = false;
              options.suggest_refinements = false;
              options.plan = plan;
              options.top_k = k;
              options.topk_scan_floor = floor;
              Result<SearchResponse> response = searcher.Search(text, options);
              ASSERT_TRUE(response.ok()) << response.status().ToString();
              char label[160];
              std::snprintf(label, sizeof(label),
                            "'%s' s=%u k=%u plan=%s backend=%s floor=%s",
                            text.c_str(), s, k, PlanModeName(plan),
                            index == &eager_ ? "eager" : "mapped",
                            floor == 0 ? "0" : "max");
              // Floor 0 engages whenever the anchor estimate is non-zero
              // (a keyword can be absent from a random corpus, and an
              // empty anchor bounds the candidates at zero: 0 <= 0
              // disengages); UINT64_MAX never engages.
              if (floor == 0) {
                EXPECT_EQ(response->plan.topk.engaged,
                          response->plan.anchor_postings > 0)
                    << label;
              } else {
                EXPECT_FALSE(response->plan.topk.engaged) << label;
              }
              EXPECT_FALSE(response->plan.topk.reason.empty()) << label;
              const size_t want =
                  std::min<size_t>(k, full.nodes.size());
              ASSERT_EQ(response->nodes.size(), want) << label;
              for (size_t i = 0; i < want; ++i) {
                const GksNode& expect = full.nodes[i];
                const GksNode& got = response->nodes[i];
                EXPECT_EQ(got.id, expect.id) << label << " node " << i;
                EXPECT_EQ(got.keyword_mask, expect.keyword_mask)
                    << label << " node " << i;
                EXPECT_EQ(got.keyword_count, expect.keyword_count)
                    << label << " node " << i;
                EXPECT_EQ(got.is_lce, expect.is_lce) << label << " node " << i;
                EXPECT_DOUBLE_EQ(got.rank, expect.rank)
                    << label << " node " << i;
              }
            }
          }
        }
      }
    }
  }
}

// The dispatched hot-path kernels (posting-block decode, offset gather,
// LZ match copy, depth counting — src/common/simd/kernels.h) must be
// invisible end to end: whole responses computed under the forced scalar
// table are bit-identical to responses under the process's active table
// (AVX2 where the CPU has it), across strategies and both backends. On a
// scalar-only build or under GKS_SIMD=off the two tables coincide and
// this degenerates to a replay check.
TEST_P(PlannerEquivalence, KernelDispatchIsInvisible) {
  const std::vector<std::string> queries = {"k0 k1 k2 k3", "\"k1 k3\" k0 k5"};
  for (const std::string& text : queries) {
    for (uint32_t s : {1u, 3u}) {
      for (PlanMode plan : {PlanMode::kMerge, PlanMode::kProbe,
                            PlanMode::kHybrid}) {
        simd::SetActiveForTest(&simd::Scalar());
        SearchResponse scalar_eager = Run(eager_, text, s, plan);
        SearchResponse scalar_mapped = Run(mapped_, text, s, plan);
        simd::SetActiveForTest(nullptr);
        char label[128];
        std::snprintf(label, sizeof(label), "'%s' s=%u plan=%s", text.c_str(),
                      s, PlanModeName(plan));
        ExpectIdentical(scalar_eager, Run(eager_, text, s, plan),
                        std::string("kernel eager ") + label);
        ExpectIdentical(scalar_mapped, Run(mapped_, text, s, plan),
                        std::string("kernel mapped ") + label);
      }
    }
  }
}

// Arena buffers are recycled across queries on the same thread; replaying
// the same queries must not be contaminated by earlier scratch state.
TEST_P(PlannerEquivalence, ArenaReuseIsStateless)  {
  const std::string text = "k0 k2 k4 k6";
  for (PlanMode plan : {PlanMode::kMerge, PlanMode::kProbe,
                        PlanMode::kHybrid}) {
    SearchResponse first = Run(eager_, text, 2, plan);
    // Interleave a different shape so the pooled buffers get resized.
    Run(eager_, "t0:k1 k3", 1, plan);
    ExpectIdentical(first, Run(eager_, text, 2, plan),
                    std::string("replay plan=") + PlanModeName(plan));
  }
}

// Forced strategies must be honored verbatim (auto may legitimately pick
// anything; merge/probe/hybrid are contracts).
TEST_P(PlannerEquivalence, ForcedStrategyIsHonored) {
  for (PlanMode plan : {PlanMode::kMerge, PlanMode::kProbe,
                        PlanMode::kHybrid}) {
    SearchResponse response = Run(eager_, "k0 k1 k2", 2, plan);
    EXPECT_EQ(response.plan.strategy, plan);
    EXPECT_EQ(response.plan.requested, plan);
  }
  SearchResponse fresh = Run(eager_, "k0 k1 k2", 2, PlanMode::kAuto);
  EXPECT_EQ(fresh.plan.requested, PlanMode::kAuto);
  EXPECT_NE(fresh.plan.strategy, PlanMode::kAuto);
  EXPECT_FALSE(fresh.plan.reason.empty());
}

// Independent end-to-end oracle: the naive subset enumeration (DOM-free
// but algorithm-independent) computes the union of SLCA sets of every
// keyword subset of size >= s. Every such SLCA must be comparable to some
// response node of the probe plan, exactly as the merge path guarantees.
TEST_P(PlannerEquivalence, ProbeCoversNaiveOracle) {
  Result<Query> query = Query::FromKeywords({"k0", "k1", "k2"});
  ASSERT_TRUE(query.ok());
  for (uint32_t s = 1; s <= 3; ++s) {
    NaiveGksResult naive = ComputeNaiveGks(eager_, *query, s);
    SearchResponse response = Run(eager_, "k0 k1 k2", s, PlanMode::kProbe);
    for (const DeweyId& slca : naive.nodes) {
      bool covered = false;
      for (const GksNode& node : response.nodes) {
        if (node.id.IsSelfOrAncestorOf(slca) ||
            slca.IsSelfOrAncestorOf(node.id)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "s=" << s << " slca=" << slca.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerEquivalence, ::testing::Range(1u, 13u));

}  // namespace
}  // namespace gks
