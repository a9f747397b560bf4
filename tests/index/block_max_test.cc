// ComputeBlockRankBounds (block_max.h) against the sibling tally it
// replaced: a hash map from each id's parent key to the number of ids of
// the list under that parent, probed per id.

#include "index/block_max.h"

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "data/random_tree_gen.h"
#include "index/posting_blocks.h"
#include "tests/test_util.h"

namespace gks {
namespace {

std::string ParentKey(DeweySpan id) {
  std::string key((id.size - 1) * sizeof(uint32_t), '\0');
  std::memcpy(key.data(), id.data, key.size());
  return key;
}

std::vector<BlockRankBound> OracleRankBounds(const PackedIds& ids,
                                             const NodeInfoTable& nodes) {
  const size_t n = ids.size();
  std::vector<BlockRankBound> bounds((n + kPostingBlockSize - 1) /
                                     kPostingBlockSize);
  std::unordered_map<std::string, uint32_t> siblings;
  for (size_t i = 0; i < n; ++i) {
    if (ids.At(i).size > 1) ++siblings[ParentKey(ids.At(i))];
  }
  for (size_t b = 0; b < bounds.size(); ++b) {
    BlockRankBound& bound = bounds[b];
    bound.weight_scaled = 1;
    bound.min_depth = ids.At(b * kPostingBlockSize).size;
    bound.max_depth = bound.min_depth;
    for (size_t i = b * kPostingBlockSize;
         i < std::min(n, (b + 1) * kPostingBlockSize); ++i) {
      DeweySpan id = ids.At(i);
      bound.min_depth = std::min(bound.min_depth, id.size);
      bound.max_depth = std::max(bound.max_depth, id.size);
      uint32_t scaled = kRankWeightOne;
      const NodeInfo* info = id.size > 1 ? nodes.Find(id) : nullptr;
      if (info != nullptr && info->is_attribute() && !info->is_entity()) {
        const NodeInfo* parent = nodes.Find(DeweySpan{id.data, id.size - 1});
        if (parent != nullptr && parent->child_count > 1) {
          const uint64_t k = siblings.at(ParentKey(id));
          uint64_t up = (k * kRankWeightOne + parent->child_count - 1) /
                        parent->child_count;
          scaled =
              static_cast<uint32_t>(std::min<uint64_t>(up, kRankWeightOne));
          if (scaled == 0) scaled = 1;
        }
      }
      bound.weight_scaled = std::max(bound.weight_scaled, scaled);
    }
  }
  return bounds;
}

// A document whose keywords sit only in attribute leaves (distinct tags
// under one parent) of wide parents, with nested subtrees between the
// leaves of one parent: there the bounds fall below 1.0 and depend on the
// exact per-parent tally.
std::string AttributeForest(std::mt19937* rng, int depth) {
  std::string xml = "<s>";
  const int children = 2 + static_cast<int>((*rng)() % 6);
  for (int c = 0; c < children; ++c) {
    if (depth > 0 && (*rng)() % 3 == 0) {
      xml += AttributeForest(rng, depth - 1);
    } else {
      std::string tag = "t" + std::to_string(c);
      xml += "<" + tag + ">" + ((*rng)() % 2 == 0 ? "alpha" : "beta") + "</" +
             tag + ">";
    }
  }
  return xml + "</s>";
}

TEST(BlockRankBoundsTest, MatchesSiblingTallyOnRandomTrees) {
  size_t lists = 0;
  size_t multi_block = 0;
  size_t loose = 0;  // bounds below 1.0, where the tally matters
  std::mt19937 rng(11);
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    std::vector<std::pair<std::string, std::string>> docs;
    for (uint32_t d = 0; d < 3; ++d) {
      data::RandomTreeOptions options;
      options.seed = seed * 10 + d;
      options.max_children = 3 + seed % 6;
      options.keyword_vocab = 3 + seed % 4;
      options.target_nodes = 300 + 100 * (seed % 4);
      docs.emplace_back("random" + std::to_string(d),
                        data::GenerateRandomTree(options));
      docs.emplace_back("forest" + std::to_string(d),
                        AttributeForest(&rng, 4));
    }
    XmlIndex index = gks::testing::BuildIndexFromDocs(docs);
    index.inverted.ForEach([&](const std::string& term,
                               const PostingList& list) {
      const PackedIds& ids = list.materialized_ids();
      std::vector<BlockRankBound> got =
          ComputeBlockRankBounds(ids, index.nodes);
      std::vector<BlockRankBound> want = OracleRankBounds(ids, index.nodes);
      ++lists;
      if (want.size() > 1) ++multi_block;
      ASSERT_EQ(got.size(), want.size()) << term;
      for (size_t b = 0; b < got.size(); ++b) {
        EXPECT_EQ(got[b].weight_scaled, want[b].weight_scaled)
            << "seed " << seed << " term " << term << " block " << b;
        EXPECT_EQ(got[b].min_depth, want[b].min_depth) << term;
        EXPECT_EQ(got[b].max_depth, want[b].max_depth) << term;
        if (want[b].weight_scaled < kRankWeightOne) ++loose;
      }
    });
  }
  EXPECT_GT(lists, 0u);
  EXPECT_GT(multi_block, 0u);
  EXPECT_GT(loose, 0u);
}

}  // namespace
}  // namespace gks
