#include "core/di.h"

#include <algorithm>
#include <functional>

#include "text/analyzer.h"

namespace gks {
namespace {

// States of a query-term memo entry (one byte per value id).
enum : uint8_t { kTermUnknown = 0, kNoQueryTerm, kHasQueryTerm };

// True if the attribute value `value_id` repeats a query keyword
// (Sec. 6.2). `memo`, when given, caches the answer per value id for one
// query over one index.
bool ContainsQueryTerm(const XmlIndex& index, uint32_t value_id,
                       const Query& query, std::vector<uint8_t>* memo) {
  if (memo != nullptr) {
    if (memo->empty()) memo->assign(index.nodes.value_count(), kTermUnknown);
    if ((*memo)[value_id] != kTermUnknown) {
      return (*memo)[value_id] == kHasQueryTerm;
    }
  }
  bool contains = false;
  for (const std::string& term : text::Analyze(index.nodes.Value(value_id))) {
    if (query.ContainsTerm(term)) {
      contains = true;
      break;
    }
  }
  if (memo != nullptr) {
    (*memo)[value_id] = contains ? kHasQueryTerm : kNoQueryTerm;
  }
  return contains;
}

// The DI occurrence filter (see DiAccumulator::Add): calls `fn(i)` with
// the attribute-directory position of each occurrence `node` contributes,
// in directory order. `memo` is as for ContainsQueryTerm.
template <typename Fn>
void ForEachDiOccurrence(const XmlIndex& index, const GksNode& node,
                         const Query& query, const DiOptions& options,
                         std::vector<uint8_t>* memo, Fn&& fn) {
  if (!node.is_lce || node.rank <= 0.0) return;
  DeweySpan entity = DeweySpan::Of(node.id);
  // A value belongs to this LCE only if no deeper entity owns it. The
  // entities nested under the LCE are its subtree range in the entity
  // directory, minus the LCE itself; a node that is no entity owns none.
  const PackedIds& entities = index.nodes.entities();
  size_t nested = entities.SubtreeBegin(entity);
  if (nested == entities.size() || !(entities.At(nested) == entity)) return;
  const size_t nested_end = entities.SubtreeEndFrom(entity, ++nested);

  auto [begin, end] = index.attributes.SubtreeRange(entity);
  end = std::min(end, begin + options.max_attrs_per_node);
  for (size_t i = begin; i < end; ++i) {
    if (nested < nested_end) {
      // One document-order walk: step past nested entities that end
      // before this attribute, then skip it if the next one holds it.
      DeweySpan attr = index.attributes.IdAt(i);
      while (nested < nested_end &&
             attr.CompareToSubtree(entities.At(nested)) > 0) {
        ++nested;
      }
      if (nested < nested_end &&
          attr.CompareToSubtree(entities.At(nested)) == 0) {
        continue;
      }
    }
    if (!ContainsQueryTerm(index, index.attributes.ValueAt(i), query, memo)) {
      fn(i);
    }
  }
}

// Tag names from depth `depth` (the contributing node) down to the
// attribute at directory position `i`.
std::vector<std::string> DiPath(const XmlIndex& index, uint32_t depth,
                                size_t i) {
  DeweySpan attr_id = index.attributes.IdAt(i);
  std::vector<std::string> path;
  for (uint32_t len = depth; len <= attr_id.size; ++len) {
    const NodeInfo* info = index.nodes.Find(DeweySpan{attr_id.data, len});
    path.push_back(info != nullptr ? index.nodes.TagName(info->tag_id) : "?");
  }
  return path;
}

// NodeDiContributions with an optional query-term memo.
std::vector<DiContribution> ContributionsOf(const XmlIndex& index,
                                            const GksNode& node,
                                            const Query& query,
                                            const DiOptions& options,
                                            std::vector<uint8_t>* memo) {
  std::vector<DiContribution> out;
  ForEachDiOccurrence(index, node, query, options, memo, [&](size_t i) {
    out.push_back(
        {index.nodes.TagName(index.attributes.TagAt(i)),
         index.nodes.Value(index.attributes.ValueAt(i)),
         DiPath(index, static_cast<uint32_t>(node.id.components().size()),
                i)});
  });
  return out;
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
  ForEachDiOccurrence(
      index, node, query, options, &term_memo_[&index], [&](size_t i) {
        Entry& entry =
            keywords_[{index.nodes.TagName(index.attributes.TagAt(i)),
                       index.nodes.Value(index.attributes.ValueAt(i))}];
        if (entry.support == 0) {
          entry.index = &index;
          entry.attr = static_cast<uint32_t>(i);
          entry.depth = static_cast<uint32_t>(node.id.components().size());
        }
        entry.weight += node.rank;
        ++entry.support;
      });
}

void DiAccumulator::Add(const std::vector<DiContribution>& contributions,
                        double rank) {
  for (const DiContribution& contribution : contributions) {
    Entry& entry = keywords_[{contribution.tag, contribution.value}];
    if (entry.support == 0) entry.path = contribution.path;
    entry.weight += rank;
    ++entry.support;
  }
}

std::vector<DiKeyword> DiAccumulator::Finish(size_t top_m) {
  using Item = std::pair<const Key*, Entry*>;
  std::vector<Item> items;
  items.reserve(keywords_.size());
  for (auto& [key, entry] : keywords_) items.push_back({&key, &entry});
  // DI order without the path leg: weight descending, then value.
  auto before = [](const Item& a, const Item& b) {
    if (a.second->weight != b.second->weight) {
      return a.second->weight > b.second->weight;
    }
    return a.first->second < b.first->second;
  };
  if (items.size() > top_m) {
    if (top_m == 0) return {};
    // The top m under the full order lie among the m-1 keys strictly
    // before the m-th and every key tying it on (weight, value).
    std::nth_element(items.begin(), items.begin() + (top_m - 1), items.end(),
                     before);
    const Item cut = items[top_m - 1];
    items.erase(std::partition(items.begin() + top_m, items.end(),
                               [&](const Item& item) {
                                 return !before(cut, item);
                               }),
                items.end());
  }

  std::vector<DiKeyword> out;
  out.reserve(items.size());
  for (auto& [key, entry] : items) {
    DiKeyword di;
    di.value = std::string(key->second);
    di.path = entry->index != nullptr
                  ? DiPath(*entry->index, entry->depth, entry->attr)
                  : std::move(entry->path);
    di.weight = entry->weight;
    di.support = entry->support;
    out.push_back(std::move(di));
  }
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
  return ContributionsOf(index, node, query, options, nullptr);
}

std::vector<std::vector<DiContribution>> ComputeDiContributions(
    const XmlIndex& index, const std::vector<GksNode>& nodes,
    const Query& query, const DiOptions& options) {
  std::vector<uint8_t> memo;
  std::vector<std::vector<DiContribution>> out;
  out.reserve(nodes.size());
  for (const GksNode& node : nodes) {
    out.push_back(ContributionsOf(index, node, query, options, &memo));
  }
  return out;
}

}  // namespace gks
