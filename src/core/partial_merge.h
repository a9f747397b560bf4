#ifndef GKS_CORE_PARTIAL_MERGE_H_
#define GKS_CORE_PARTIAL_MERGE_H_

#include <cstdint>
#include <vector>

#include "core/di.h"
#include "core/lce.h"
#include "core/plan.h"
#include "core/query.h"
#include "core/searcher.h"
#include "index/xml_index.h"

namespace gks {

/// The engine's result order: potential-flow rank descending, then
/// keyword count descending, then Dewey id ascending. Total, because
/// Dewey ids are unique — so a merged order never depends on how the
/// documents were partitioned or in which order partials arrived.
inline bool RanksBefore(const GksNode& a, const GksNode& b) {
  if (a.rank != b.rank) return a.rank > b.rank;
  if (a.keyword_count != b.keyword_count) {
    return a.keyword_count > b.keyword_count;
  }
  return a.id < b.id;
}

/// One partition's ranked share of a query, before the cross-partition
/// stages: the whole single index, one real-time segment, or one shard's
/// decoded wire partial.
struct PartialResult {
  std::vector<GksNode> nodes;  // any order
  /// The DI source. A local partial names the index its nodes live in,
  /// and DI occurrences are read from it lazily — only for the nodes
  /// that survive the merge's cuts.
  const XmlIndex* index = nullptr;
  /// A shard partial has no index; it ships each node's contribution
  /// list instead (aligned with `nodes`, or empty when DI was not asked).
  std::vector<std::vector<DiContribution>> di;
  size_t merged_list_size = 0;
  size_t candidate_count = 0;
  PlanInfo plan;
};

struct MergedPartials {
  SearchResponse response;
  /// For each response node, its position in the concatenation of the
  /// partials' node lists (in input order) — lets a caller carry
  /// per-node payloads such as display strings through the merge.
  std::vector<size_t> sources;
};

/// The one result tail behind every search (DESIGN.md row 18): potential-
/// flow ranks depend only on a node's own subtree (Sec. 5) and a DI
/// weight is a sum of LCE ranks per attribute key (Sec. 6.2), so any
/// partitioning of the documents merges the same way. In order, the
/// merge
///   - drops nodes of `deleted` documents (sorted doc ids; may be null),
///   - sorts by RanksBefore and cuts at `options.top_k`,
///   - counts LCE nodes,
///   - accumulates DI over the nodes in merged order (span `di`),
///   - suggests refinements from the nodes and DI (span `refinement`),
///   - trims to `options.max_results`,
/// and sums `merged_list_size` / `candidate_count` over the partials. The
/// plan is that of the partial with the largest merged list (the first
/// on ties): with one partial it is exactly that partial's plan, and the
/// posting statistics behind every other decision are smaller.
MergedPartials MergePartials(const Query& query, const SearchOptions& options,
                             std::vector<PartialResult> partials,
                             const std::vector<uint32_t>* deleted = nullptr);

}  // namespace gks

#endif  // GKS_CORE_PARTIAL_MERGE_H_
