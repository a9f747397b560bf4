// Parameterized property suites: paper lemmas and oracle cross-checks over
// randomly generated documents and queries (deterministic per seed).

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "baseline/match_trie.h"
#include "baseline/slca_ile.h"
#include "baseline/stack_scan.h"
#include "core/lce.h"
#include "core/merged_list.h"
#include "core/searcher.h"
#include "core/window_scan.h"
#include "data/random_tree_gen.h"
#include "index/serialization.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromXml;

class RandomTreeProperty : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    data::RandomTreeOptions options;
    options.seed = GetParam();
    options.target_nodes = 150 + (GetParam() % 5) * 80;
    options.max_depth = 4 + GetParam() % 5;
    xml_ = data::GenerateRandomTree(options);
    index_ = BuildIndexFromXml(xml_);
  }

  Query MakeQuery(size_t keywords) {
    std::vector<std::string> raw;
    for (size_t i = 0; i < keywords; ++i) {
      raw.push_back("k" + std::to_string((GetParam() + i * 3) % 8));
    }
    std::sort(raw.begin(), raw.end());
    raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
    Result<Query> query = Query::FromKeywords(raw);
    EXPECT_TRUE(query.ok());
    return std::move(query).value();
  }

  SearchResponse Search(const Query& query, uint32_t s) {
    GksSearcher searcher(&index_);
    SearchOptions options;
    options.s = s;
    options.discover_di = false;
    options.suggest_refinements = false;
    Result<SearchResponse> response = searcher.Search(query, options);
    EXPECT_TRUE(response.ok());
    return std::move(response).value();
  }

  std::string xml_;
  XmlIndex index_;
};

// Every response node's subtree must contain at least s distinct keywords
// (the defining GKS property).
TEST_P(RandomTreeProperty, ResponseNodesContainAtLeastSKeywords) {
  Query query = MakeQuery(4);
  MergedList sl = MergedList::Build(index_, query);
  for (uint32_t s = 1; s <= query.size(); ++s) {
    for (const GksNode& node : Search(query, s).nodes) {
      uint64_t mask = sl.SubtreeMask(DeweySpan::Of(node.id));
      EXPECT_GE(std::popcount(mask), static_cast<int>(s))
          << node.id.ToString() << " at s=" << s;
      EXPECT_EQ(mask, node.keyword_mask);
    }
  }
}

// Lemma 2: |R_Q(s1)| <= |R_Q(s2)| for s1 > s2.
TEST_P(RandomTreeProperty, Lemma2SizeMonotoneInS) {
  Query query = MakeQuery(4);
  size_t previous = SIZE_MAX;
  for (uint32_t s = 1; s <= query.size(); ++s) {
    size_t count = Search(query, s).nodes.size();
    EXPECT_LE(count, previous) << "s=" << s;
    previous = count;
  }
}

// Lemma 1: every LCE response node is a self-or-ancestor of some LCP
// candidate (the LCA of a keyword block).
TEST_P(RandomTreeProperty, Lemma1LceIsAncestorOfCandidate) {
  Query query = MakeQuery(3);
  MergedList sl = MergedList::Build(index_, query);
  for (uint32_t s = 1; s <= query.size(); ++s) {
    std::vector<LcpCandidate> candidates = ComputeLcpCandidates(sl, s);
    for (const GksNode& node : Search(query, s).nodes) {
      if (!node.is_lce) continue;
      bool covers_candidate = false;
      for (const LcpCandidate& candidate : candidates) {
        if (node.id.IsSelfOrAncestorOf(candidate.node)) {
          covers_candidate = true;
          break;
        }
      }
      EXPECT_TRUE(covers_candidate) << node.id.ToString();
    }
  }
}

// Def 2.2.1: every reported LCE has an independent witness — an occurrence
// whose lowest entity ancestor is the LCE itself.
TEST_P(RandomTreeProperty, EveryLceHasIndependentWitness) {
  Query query = MakeQuery(4);
  MergedList sl = MergedList::Build(index_, query);
  for (uint32_t s = 1; s <= 2; ++s) {
    for (const GksNode& node : Search(query, s).nodes) {
      if (!node.is_lce) continue;
      const NodeInfo* info = index_.nodes.Find(node.id);
      ASSERT_NE(info, nullptr);
      EXPECT_TRUE(info->is_entity()) << node.id.ToString();

      bool witnessed = false;
      auto [begin, end] = sl.SubtreeRange(DeweySpan::Of(node.id));
      for (size_t i = begin; i < end && !witnessed; ++i) {
        std::vector<uint32_t> lowest;
        if (LowestEntityOf(index_, sl.IdAt(i), &lowest) &&
            DeweyId(lowest) == node.id) {
          witnessed = true;
        }
      }
      EXPECT_TRUE(witnessed) << node.id.ToString();
    }
  }
}

// For s = |Q|, every SLCA node is covered by the response: some returned
// node is comparable (equal, ancestor via LCE lift, or descendant via the
// covered-ancestor pruning that drops meaningless roots).
TEST_P(RandomTreeProperty, SlcaNodesCoveredAtFullS) {
  Query query = MakeQuery(3);
  MergedList sl = MergedList::Build(index_, query);
  MatchTrie trie(sl, query.size());
  std::vector<DeweyId> slcas = trie.ComputeSlcas();
  SearchResponse response = Search(query, static_cast<uint32_t>(query.size()));
  for (const DeweyId& slca : slcas) {
    bool covered = false;
    for (const GksNode& node : response.nodes) {
      if (node.id.IsSelfOrAncestorOf(slca) ||
          slca.IsSelfOrAncestorOf(node.id)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << slca.ToString();
  }
}

// ILE must agree exactly with the trie oracle.
TEST_P(RandomTreeProperty, IleAgreesWithTrieOracle) {
  for (size_t n : {2u, 3u, 4u}) {
    Query query = MakeQuery(n);
    MergedList sl = MergedList::Build(index_, query);
    MatchTrie trie(sl, query.size());
    std::vector<DeweyId> expected = trie.ComputeSlcas();
    std::vector<DeweyId> actual = ComputeSlcaIle(index_, query);
    EXPECT_EQ(actual, expected) << "n=" << n << " seed=" << GetParam();
  }
}

// The single-pass stack algorithm must agree with the trie oracle on both
// SLCA and ELCA sets.
TEST_P(RandomTreeProperty, StackScanAgreesWithTrieOracle) {
  for (size_t n : {2u, 3u, 4u}) {
    Query query = MakeQuery(n);
    MergedList sl = MergedList::Build(index_, query);
    MatchTrie trie(sl, query.size());
    StackScanResult scan = ComputeSlcaElcaByStack(sl, query.size());
    EXPECT_EQ(scan.slcas, trie.ComputeSlcas())
        << "SLCA n=" << n << " seed=" << GetParam();
    EXPECT_EQ(scan.elcas, trie.ComputeElcas())
        << "ELCA n=" << n << " seed=" << GetParam();
  }
}

// SLCA is always a subset of ELCA (both from the oracle).
TEST_P(RandomTreeProperty, SlcaSubsetOfElca) {
  Query query = MakeQuery(3);
  MergedList sl = MergedList::Build(index_, query);
  MatchTrie trie(sl, query.size());
  std::vector<DeweyId> elcas = trie.ComputeElcas();
  std::set<std::string> elca_set;
  for (const DeweyId& id : elcas) elca_set.insert(id.ToString());
  for (const DeweyId& id : trie.ComputeSlcas()) {
    EXPECT_TRUE(elca_set.count(id.ToString())) << id.ToString();
  }
}

// The merged list is sorted in document order and its per-atom postings
// match the individual posting lists.
TEST_P(RandomTreeProperty, MergedListSortedAndComplete) {
  Query query = MakeQuery(4);
  MergedList sl = MergedList::Build(index_, query);
  size_t expected_total = 0;
  for (size_t size : sl.atom_list_sizes()) expected_total += size;
  EXPECT_EQ(sl.size(), expected_total);
  for (size_t i = 1; i < sl.size(); ++i) {
    EXPECT_LE(sl.IdAt(i - 1).Compare(sl.IdAt(i)), 0) << i;
  }
}

// Ranks are positive; each terminal receives at most the full potential P,
// and there are at most as many terminals as occurrences in the subtree,
// so rank <= P * |subtree occurrences|.
TEST_P(RandomTreeProperty, RanksPositiveAndBounded) {
  Query query = MakeQuery(4);
  MergedList sl = MergedList::Build(index_, query);
  for (uint32_t s = 1; s <= 2; ++s) {
    for (const GksNode& node : Search(query, s).nodes) {
      EXPECT_GT(node.rank, 0.0) << node.id.ToString();
      auto [begin, end] = sl.SubtreeRange(DeweySpan::Of(node.id));
      double bound = static_cast<double>(node.keyword_count) *
                     static_cast<double>(end - begin);
      EXPECT_LE(node.rank, bound + 1e-9) << node.id.ToString();
    }
  }
}

// Serialization round-trips the index exactly (query answers identical).
TEST_P(RandomTreeProperty, SerializationPreservesAnswers) {
  Query query = MakeQuery(3);
  SearchResponse before = Search(query, 2);

  Result<XmlIndex> loaded = DeserializeIndex(SerializeIndex(index_));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  GksSearcher searcher(&*loaded);
  SearchOptions options;
  options.s = 2;
  options.discover_di = false;
  options.suggest_refinements = false;
  Result<SearchResponse> after = searcher.Search(query, options);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->nodes.size(), before.nodes.size());
  for (size_t i = 0; i < before.nodes.size(); ++i) {
    EXPECT_EQ(after->nodes[i].id, before.nodes[i].id);
    EXPECT_DOUBLE_EQ(after->nodes[i].rank, before.nodes[i].rank);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeProperty,
                         ::testing::Range(1u, 21u));

}  // namespace
}  // namespace gks
