#include "core/di.h"

#include <algorithm>
#include <functional>

#include "text/analyzer.h"

namespace gks {
namespace {

// The DI occurrence filter (see DiAccumulator::Add): calls `fn(i)` with
// the attribute-directory position of each occurrence `node` contributes,
// in directory order.
template <typename Fn>
void ForEachDiOccurrence(const XmlIndex& index, const GksNode& node,
                         const Query& query, const DiOptions& options,
                         Fn&& fn) {
  if (!node.is_lce || node.rank <= 0.0) return;
  DeweySpan entity = DeweySpan::Of(node.id);
  auto [begin, end] = index.attributes.SubtreeRange(entity);
  end = std::min(end, begin + options.max_attrs_per_node);
  std::vector<uint32_t> owner;
  for (size_t i = begin; i < end; ++i) {
    // The value belongs to this LCE only if no deeper entity owns it.
    if (!LowestEntityOf(index, index.attributes.IdAt(i), &owner)) {
      continue;
    }
    if (owner.size() != entity.size ||
        !std::equal(owner.begin(), owner.end(), entity.data)) {
      continue;
    }
    // Exclude values that repeat a query keyword (Sec. 6.2).
    const std::string& value = index.nodes.Value(index.attributes.ValueAt(i));
    bool contains_query_term = false;
    for (const std::string& term : text::Analyze(value)) {
      if (query.ContainsTerm(term)) {
        contains_query_term = true;
        break;
      }
    }
    if (!contains_query_term) fn(i);
  }
}

// Tag names from `node` down to the attribute at directory position `i`.
std::vector<std::string> DiPath(const XmlIndex& index, const GksNode& node,
                                size_t i) {
  DeweySpan attr_id = index.attributes.IdAt(i);
  std::vector<std::string> path;
  for (uint32_t len = DeweySpan::Of(node.id).size; len <= attr_id.size;
       ++len) {
    const NodeInfo* info = index.nodes.Find(DeweySpan{attr_id.data, len});
    path.push_back(info != nullptr ? index.nodes.TagName(info->tag_id) : "?");
  }
  return path;
}

}  // namespace

std::string DiKeyword::ToString() const {
  std::string out = "<";
  if (!path.empty()) {
    // Use the attribute node's tag as the semantic label, prefixed with
    // the LCE tag when the path is deeper than one hop.
    if (path.size() > 2) {
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        out += path[i];
        out += ": ";
      }
    } else {
      out += path.back();
      out += ": ";
    }
  }
  out += value;
  out += ">";
  return out;
}

size_t DiAccumulator::KeyHash::operator()(const Key& key) const {
  std::hash<std::string_view> hash;
  return hash(key.first) * 31 + hash(key.second);
}

void DiAccumulator::Add(const XmlIndex& index, const GksNode& node,
                        const Query& query, const DiOptions& options) {
  ForEachDiOccurrence(index, node, query, options, [&](size_t i) {
    const std::string& value = index.nodes.Value(index.attributes.ValueAt(i));
    DiKeyword& di =
        keywords_[{index.nodes.TagName(index.attributes.TagAt(i)), value}];
    if (di.support == 0) {
      di.value = value;
      di.path = DiPath(index, node, i);
    }
    di.weight += node.rank;
    ++di.support;
  });
}

void DiAccumulator::Add(const std::vector<DiContribution>& contributions,
                        double rank) {
  for (const DiContribution& contribution : contributions) {
    DiKeyword& di = keywords_[{contribution.tag, contribution.value}];
    if (di.support == 0) {
      di.value = contribution.value;
      di.path = contribution.path;
    }
    di.weight += rank;
    ++di.support;
  }
}

std::vector<DiKeyword> DiAccumulator::Finish(size_t top_m) {
  std::vector<DiKeyword> out;
  out.reserve(keywords_.size());
  for (auto& [key, di] : keywords_) out.push_back(std::move(di));
  std::sort(out.begin(), out.end(), [](const DiKeyword& a, const DiKeyword& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.value != b.value) return a.value < b.value;
    return a.path < b.path;
  });
  if (out.size() > top_m) out.resize(top_m);
  return out;
}

std::vector<DiKeyword> DiscoverDi(const XmlIndex& index,
                                  const std::vector<GksNode>& nodes,
                                  const Query& query,
                                  const DiOptions& options) {
  DiAccumulator accumulator;
  for (const GksNode& node : nodes) {
    accumulator.Add(index, node, query, options);
  }
  return accumulator.Finish(options.top_m);
}

std::vector<DiContribution> NodeDiContributions(const XmlIndex& index,
                                                const GksNode& node,
                                                const Query& query,
                                                const DiOptions& options) {
  std::vector<DiContribution> out;
  ForEachDiOccurrence(index, node, query, options, [&](size_t i) {
    out.push_back({index.nodes.TagName(index.attributes.TagAt(i)),
                   index.nodes.Value(index.attributes.ValueAt(i)),
                   DiPath(index, node, i)});
  });
  return out;
}

std::vector<std::vector<DiContribution>> ComputeDiContributions(
    const XmlIndex& index, const std::vector<GksNode>& nodes,
    const Query& query, const DiOptions& options) {
  std::vector<std::vector<DiContribution>> out;
  out.reserve(nodes.size());
  for (const GksNode& node : nodes) {
    out.push_back(NodeDiContributions(index, node, query, options));
  }
  return out;
}

}  // namespace gks
