#include "core/lce.h"

#include <algorithm>
#include <bit>

#include "common/trace.h"
#include "core/ranking.h"

namespace gks {

bool LowestEntityOf(const XmlIndex& index, DeweySpan id,
                    std::vector<uint32_t>* out) {
  uint32_t entity = index.nodes.LowestEntity(id);
  if (entity == NodeInfoTable::kNoEntity) return false;
  DeweySpan span = index.nodes.entities().At(entity);
  out->assign(span.data, span.data + span.size);  // reuses capacity
  return true;
}

std::vector<GksNode> ComputeGksNodes(const XmlIndex& index,
                                     const MergedList& sl,
                                     const std::vector<LcpCandidate>& lcps_in) {
  // SLCA-style minimality: drop ancestors whose keyword set is already
  // covered by their candidate descendants (Table 1's {x2}-not-{x1,x2,r}).
  std::vector<LcpCandidate> lcps = [&] {
    ScopedSpan span("prune");
    std::vector<LcpCandidate> pruned = PruneCoveredAncestors(sl, lcps_in);
    span.AddItems(pruned.size());
    return pruned;
  }();
  return ComputeGksNodesPruned(index, sl, lcps);
}

std::vector<GksNode> ComputeGksNodesPruned(
    const XmlIndex& index, const MergedList& sl,
    const std::vector<LcpCandidate>& lcps) {
  const NodeInfoTable& table = index.nodes;
  // Entities with an independent witness: the lowest entity ancestor of at
  // least one occurrence in S_L (Def. 2.2.1 restricted to query keywords),
  // as sorted entity-directory positions.
  std::vector<uint32_t> witnessed;
  {
    ScopedSpan span("lce.witness");
    for (size_t i = 0; i < sl.size(); ++i) {
      uint32_t entity = table.LowestEntity(sl.IdAt(i));
      // Neighbouring occurrences mostly share their entity.
      if (entity != NodeInfoTable::kNoEntity &&
          (witnessed.empty() || witnessed.back() != entity)) {
        witnessed.push_back(entity);
      }
    }
    std::sort(witnessed.begin(), witnessed.end());
    witnessed.erase(std::unique(witnessed.begin(), witnessed.end()),
                    witnessed.end());
    span.AddItems(witnessed.size());
  }

  // Map each candidate to its response node; aggregate window counts for
  // candidates that converge on the same node. Ids view the candidates and
  // the entity directory, both alive for the whole call.
  struct Mapped {
    DeweySpan id;
    bool is_lce = false;
    uint32_t window_count = 0;
  };
  std::vector<GksNode> out;
  {
    ScopedSpan span("lce.map");
    std::vector<Mapped> mapped;
    mapped.reserve(lcps.size());
    for (const LcpCandidate& lcp : lcps) {
      DeweySpan id = DeweySpan::Of(lcp.node);
      // Attribute nodes cannot be meaningful response roots: lift to parent.
      const NodeInfo* info = table.Find(id);
      if (info != nullptr && info->is_attribute() && id.size > 1) --id.size;

      uint32_t entity = table.LowestEntity(id);
      if (entity != NodeInfoTable::kNoEntity &&
          std::binary_search(witnessed.begin(), witnessed.end(), entity)) {
        mapped.push_back({table.entities().At(entity), true, lcp.window_count});
      } else {
        mapped.push_back({id, false, lcp.window_count});
      }
    }
    std::sort(mapped.begin(), mapped.end(),
              [](const Mapped& a, const Mapped& b) {
                return a.id.Compare(b.id) < 0;
              });

    for (size_t i = 0; i < mapped.size();) {
      GksNode node;
      node.id = mapped[i].id.ToDeweyId();
      size_t j = i;
      for (; j < mapped.size() && mapped[j].id == mapped[i].id; ++j) {
        node.is_lce = node.is_lce || mapped[j].is_lce;
        node.window_count += mapped[j].window_count;
      }
      i = j;
      node.keyword_mask = sl.SubtreeMask(DeweySpan::Of(node.id));
      node.keyword_count =
          static_cast<uint32_t>(std::popcount(node.keyword_mask));
      out.push_back(std::move(node));
    }
    span.AddItems(out.size());
  }
  {
    ScopedSpan span("ranking");
    for (GksNode& node : out) {
      node.rank = ComputePotentialFlowRank(index, sl, DeweySpan::Of(node.id),
                                           node.keyword_mask);
    }
    span.AddItems(out.size());
  }
  return out;
}

}  // namespace gks
