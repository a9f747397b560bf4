#include "schema/schema_summary.h"

#include <cstdio>

#include "index/node_kind.h"

namespace gks {
namespace {

// Tag path of a node: the tags of every prefix of its Dewey id, skipping
// the bare document-id prefix (which names no element).
bool TagPathOf(const XmlIndex& index, DeweySpan id,
               std::vector<uint32_t>* path) {
  path->clear();
  for (uint32_t len = 2; len <= id.size; ++len) {
    const NodeInfo* info = index.nodes.Find(DeweySpan{id.data, len});
    if (info == nullptr) return false;
    path->push_back(info->tag_id);
  }
  return true;
}

}  // namespace

uint8_t SchemaSummary::PathInfo::MajorityFlags() const {
  uint8_t flags = 0;
  if (attribute * 2 > instances) flags |= kFlagAttribute;
  if (repeating * 2 > instances) flags |= kFlagRepeating;
  if (entity * 2 > instances) flags |= kFlagEntity;
  if (flags == 0) flags = kFlagConnecting;
  return flags;
}

SchemaSummary SchemaSummary::Build(const XmlIndex& index) {
  SchemaSummary summary;
  std::vector<uint32_t> path;
  index.nodes.ForEach([&](DeweySpan id, const NodeInfo& info) {
    if (!TagPathOf(index, id, &path)) return;
    PathInfo& entry = summary.paths_[path];
    if (entry.instances == 0) entry.tag_path = path;
    ++entry.instances;
    if (info.is_attribute()) ++entry.attribute;
    if (info.is_repeating()) ++entry.repeating;
    if (info.is_entity()) ++entry.entity;
    if (info.is_connecting()) ++entry.connecting;
    entry.total_child_count += info.child_count;
  });
  return summary;
}

const SchemaSummary::PathInfo* SchemaSummary::Find(
    const std::vector<uint32_t>& tag_path) const {
  auto it = paths_.find(tag_path);
  return it == paths_.end() ? nullptr : &it->second;
}

bool SchemaSummary::IsEntityPath(const std::vector<uint32_t>& tag_path) const {
  const PathInfo* info = Find(tag_path);
  return info != nullptr && (info->MajorityFlags() & kFlagEntity) != 0;
}

std::string SchemaSummary::ToString(const XmlIndex& index) const {
  std::string out;
  for (const auto& [path, info] : paths_) {
    out.append((path.size() - 1) * 2, ' ');
    out += index.nodes.TagName(path.back());
    char buf[96];
    double avg_children =
        info.instances > 0
            ? static_cast<double>(info.total_child_count) /
                  static_cast<double>(info.instances)
            : 0.0;
    std::snprintf(buf, sizeof(buf), "  x%llu  [%s]  avg-children=%.1f\n",
                  static_cast<unsigned long long>(info.instances),
                  NodeFlagsToString(info.MajorityFlags()).c_str(),
                  avg_children);
    out += buf;
  }
  return out;
}

SchemaReconciliation ApplySchemaCategorization(const SchemaSummary& summary,
                                               XmlIndex* index) {
  SchemaReconciliation stats;
  // Collect the promotions first: mutating while iterating the table would
  // invalidate the walk.
  std::vector<std::pair<std::vector<uint32_t>, uint8_t>> promotions;
  std::vector<uint32_t> path;
  index->nodes.ForEach([&](DeweySpan id, const NodeInfo& info) {
    if (!TagPathOf(*index, id, &path)) return;
    const SchemaSummary::PathInfo* entry = summary.Find(path);
    if (entry == nullptr) return;
    uint8_t majority = entry->MajorityFlags();
    uint8_t missing = 0;
    if ((majority & kFlagEntity) && !info.is_entity()) missing |= kFlagEntity;
    if ((majority & kFlagAttribute) && !info.is_attribute() &&
        !info.is_repeating() && info.child_count <= 1) {
      missing |= kFlagAttribute;
    }
    if (missing != 0) {
      promotions.emplace_back(
          std::vector<uint32_t>(id.data, id.data + id.size), missing);
    }
  });
  for (const auto& [components, flags] : promotions) {
    DeweySpan span{components.data(),
                   static_cast<uint32_t>(components.size())};
    if (index->nodes.AddFlags(span, flags)) {
      if (flags & kFlagEntity) ++stats.promoted_entities;
      if (flags & kFlagAttribute) ++stats.promoted_attributes;
    }
  }
  if (stats.promoted_entities > 0) index->nodes.RebuildEntityDirectory();
  // Category flags feed ranking and DI: cached responses computed before
  // the reconciliation are stale.
  if (stats.promoted_entities + stats.promoted_attributes > 0) {
    ++index->epoch;
  }
  return stats;
}

}  // namespace gks
