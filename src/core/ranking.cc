#include "core/ranking.h"

#include <bit>
#include <limits>
#include <vector>

namespace gks {

double ComputePotentialFlowRank(const XmlIndex& index, const MergedList& sl,
                                DeweySpan node, uint64_t keyword_mask) {
  auto [begin, end] = sl.SubtreeRange(node);
  if (begin >= end || keyword_mask == 0) return 0.0;

  const double potential =
      static_cast<double>(std::popcount(keyword_mask));

  // Highest (shallowest) occurrence depth per keyword within the subtree.
  uint32_t min_depth[64];
  for (uint32_t& d : min_depth) d = std::numeric_limits<uint32_t>::max();
  for (size_t i = begin; i < end; ++i) {
    uint32_t atom = sl.AtomAt(i);
    uint32_t depth = sl.IdAt(i).size;
    if (depth < min_depth[atom]) min_depth[atom] = depth;
  }

  // Child count of a path node; a missing or childless node divides by 1.
  auto children = [&index](DeweySpan id) {
    const NodeInfo* info = index.nodes.Find(id);
    return static_cast<double>(
        (info != nullptr && info->child_count > 0) ? info->child_count : 1);
  };
  const double node_children = children(node);

  double rank = 0.0;
  for (size_t i = begin; i < end; ++i) {
    uint32_t atom = sl.AtomAt(i);
    if ((keyword_mask & (1ull << atom)) == 0) continue;
    DeweySpan id = sl.IdAt(i);
    if (id.size != min_depth[atom]) continue;  // not a terminal point

    // Divide the potential at each node on the path from the response node
    // down to the terminal's parent; what remains arrives at the terminal.
    double flow = potential;
    if (node.size < id.size) flow /= node_children;
    for (uint32_t len = node.size + 1; len < id.size; ++len) {
      flow /= children(DeweySpan{id.data, len});
    }
    rank += flow;
  }
  return rank;
}

}  // namespace gks
