#include "index/block_max.h"

#include <algorithm>

#include "index/posting_blocks.h"

namespace gks {

std::vector<BlockRankBound> ComputeBlockRankBounds(const PackedIds& ids,
                                                   const NodeInfoTable& nodes) {
  const size_t n = ids.size();
  const size_t blocks = (n + kPostingBlockSize - 1) / kPostingBlockSize;
  std::vector<BlockRankBound> bounds(blocks);
  if (blocks == 0) return bounds;

  // Pass 1: group the ids of THIS list by exact parent. Siblings are not
  // adjacent in document order once they have subtrees, but two ids that
  // share a parent are separated only by descendants of the earlier one
  // (deeper ids), so one open group per id length suffices: an id of
  // length L joins the open length-L group iff it has that group's
  // parent. Each group records its size and, the first time a member
  // needs it, its parent's child count.
  constexpr uint32_t kNone = 0xffffffffu;
  struct Group {
    uint32_t first;                   // index of the group's first id
    uint32_t size = 0;
    uint32_t parent_children = kNone;  // looked up on first need
  };
  std::vector<Group> groups;
  std::vector<uint32_t> group_of(n, kNone);
  std::vector<uint32_t> open;  // open[L]: open group of length-L ids
  for (size_t i = 0; i < n; ++i) {
    DeweySpan id = ids.At(i);
    if (id.size <= 1) continue;
    if (open.size() <= id.size) open.resize(id.size + 1, kNone);
    uint32_t& g = open[id.size];
    if (g == kNone ||
        !DeweySpan{id.data, id.size - 1}.IsPrefixOf(ids.At(groups[g].first))) {
      g = static_cast<uint32_t>(groups.size());
      groups.push_back({static_cast<uint32_t>(i)});
    }
    ++groups[g].size;
    group_of[i] = g;
  }

  // Pass 2: per-id weight, folded into per-block max weight + depth range.
  for (size_t b = 0; b < blocks; ++b) {
    const size_t begin = b * kPostingBlockSize;
    const size_t end = std::min(n, begin + kPostingBlockSize);
    BlockRankBound& bound = bounds[b];
    bound.weight_scaled = 1;  // raised to the block max below
    bound.min_depth = ids.At(begin).size;
    bound.max_depth = bound.min_depth;
    for (size_t i = begin; i < end; ++i) {
      DeweySpan id = ids.At(i);
      bound.min_depth = std::min(bound.min_depth, id.size);
      bound.max_depth = std::max(bound.max_depth, id.size);

      uint32_t scaled = kRankWeightOne;
      const NodeInfo* info = id.size > 1 ? nodes.Find(id) : nullptr;
      if (info != nullptr && info->is_attribute() && !info->is_entity()) {
        Group& group = groups[group_of[i]];
        if (group.parent_children == kNone) {
          const NodeInfo* parent =
              nodes.Find(DeweySpan{id.data, id.size - 1});
          group.parent_children = parent != nullptr ? parent->child_count : 0;
        }
        const uint64_t cc = group.parent_children;
        if (cc > 1) {
          const uint64_t k = group.size;
          // Ceil so the fixed-point bound never under-states k/cc.
          uint64_t up = (k * kRankWeightOne + cc - 1) / cc;
          scaled = static_cast<uint32_t>(
              std::min<uint64_t>(up, kRankWeightOne));
          if (scaled == 0) scaled = 1;
        }
      }
      bound.weight_scaled = std::max(bound.weight_scaled, scaled);
    }
  }
  return bounds;
}

}  // namespace gks
