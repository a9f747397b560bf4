#ifndef GKS_CORE_DI_H_
#define GKS_CORE_DI_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/lce.h"
#include "core/query.h"
#include "index/xml_index.h"

namespace gks {

/// One element of the weighted keyword set S_w^Q (Sec. 6.2): an attribute
/// value exposed by the LCE nodes of the query response, its schema path
/// (tag names from the LCE down to the attribute node — the "semantics"
/// of the keyword, e.g. ip -> year -> "2001"), and its weight — the sum of
/// the ranks of every LCE node exposing it.
struct DiKeyword {
  std::string value;
  std::vector<std::string> path;
  double weight = 0.0;
  uint32_t support = 0;  // number of LCE nodes exposing the value

  /// "<year: 2001>" style rendering used by the Table 8 harness.
  std::string ToString() const;
};

struct DiOptions {
  size_t top_m = 5;
  /// Safety valve for LCE nodes with enormous attribute fan-out (e.g. a
  /// root-level response): at most this many directory entries are
  /// scanned per node.
  size_t max_attrs_per_node = 100000;
};

/// One attribute occurrence a response node contributes to DI discovery
/// (Sec. 6.2): the aggregation key (attribute tag name, value string)
/// plus the tag path from the owning entity down to the attribute. This
/// is the partition-independent form of a DI occurrence — a coordinator
/// replays the accumulation from these without touching any index
/// (docs/DISTRIBUTED.md).
struct DiContribution {
  std::string tag;
  std::string value;
  std::vector<std::string> path;
};

/// DI accumulation over response nodes fed in final rank order: a
/// keyword's weight sums the ranks of the LCE nodes exposing it, its
/// support counts them, and its first contributor defines its path.
/// Keywords are keyed by (attribute tag name, value string), so
/// occurrences read from different indexes, or from the wire, group
/// exactly as one index's would. Keys view the strings they were added
/// from: the indexes and contribution lists must outlive the accumulator.
class DiAccumulator {
 public:
  /// Adds the DI occurrences of `node` found in `index`: nothing unless
  /// `node` is an LCE of positive rank; otherwise each attribute in its
  /// subtree (at most `max_attrs_per_node` scanned) whose lowest entity
  /// is `node` itself and whose value contains no query term ("if a
  /// keyword in the attribute node is part of the user query Q, it is not
  /// included in the set"). That filter is memoized per value, so every
  /// call on one accumulator must pass the same query.
  void Add(const XmlIndex& index, const GksNode& node, const Query& query,
           const DiOptions& options);
  /// Adds the occurrences a shard shipped for a node of rank `rank`.
  void Add(const std::vector<DiContribution>& contributions, double rank);

  /// The top `top_m` keywords in DI order: weight descending, then value,
  /// then path. The path leg makes the order total (distinct keys with
  /// the same weight and value differ in the attribute tag, the path's
  /// last element), so the result does not depend on accumulation order.
  /// Paths are built only for the keys that can reach the top `top_m`.
  std::vector<DiKeyword> Finish(size_t top_m);

 private:
  using Key = std::pair<std::string_view, std::string_view>;  // tag, value
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  // One accumulated keyword. An index contributor's path is deferred to
  // Finish: until then the entry keeps where its first occurrence was.
  struct Entry {
    double weight = 0.0;
    uint32_t support = 0;
    const XmlIndex* index = nullptr;  // null: `path` came from the wire
    uint32_t attr = 0;                // attribute-directory position
    uint32_t depth = 0;               // depth of the contributing node
    std::vector<std::string> path;
  };
  std::unordered_map<Key, Entry, KeyHash> keywords_;
  // Per index, per value id: does the value contain a query term (one
  // accumulator serves one query). Segments interleave in rank order, so
  // each index keeps its own memo.
  std::unordered_map<const XmlIndex*, std::vector<uint8_t>> term_memo_;
};

/// Discovers the top-m DI keywords (Def. 2.3.1) for a ranked response over
/// one index. Runs in O(|S_w^Q|) plus the final top-m sort.
std::vector<DiKeyword> DiscoverDi(const XmlIndex& index,
                                  const std::vector<GksNode>& nodes,
                                  const Query& query,
                                  const DiOptions& options = {});

/// The DI contributions of one node: exactly the occurrences
/// DiAccumulator::Add(index, ...) accumulates for it, so replaying them
/// in rank order is bit-identical to running discovery directly. Empty
/// for non-contributors.
std::vector<DiContribution> NodeDiContributions(const XmlIndex& index,
                                                const GksNode& node,
                                                const Query& query,
                                                const DiOptions& options);

/// NodeDiContributions for every node, aligned with `nodes`.
std::vector<std::vector<DiContribution>> ComputeDiContributions(
    const XmlIndex& index, const std::vector<GksNode>& nodes,
    const Query& query, const DiOptions& options);

}  // namespace gks

#endif  // GKS_CORE_DI_H_
