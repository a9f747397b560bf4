#include "core/shard_merge.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "core/partial_merge.h"

namespace gks {

std::string EncodeDoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)bits);
  return buf;
}

bool DecodeDoubleBits(const std::string& hex, double* value) {
  uint64_t bits = 0;
  if (!DecodeMaskBits(hex, &bits)) return false;
  std::memcpy(value, &bits, sizeof(bits));
  return true;
}

std::string EncodeMaskBits(uint64_t mask) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx", (unsigned long long)mask);
  return buf;
}

bool DecodeMaskBits(const std::string& hex, uint64_t* mask) {
  if (hex.empty() || hex.size() > 16) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(hex.c_str(), &end, 16);
  if (errno != 0 || end != hex.c_str() + hex.size()) return false;
  *mask = parsed;
  return true;
}

MergedShardResult MergeShardResults(const Query& query,
                                    const SearchOptions& options,
                                    std::vector<ShardPartialResult> shards) {
  MergedShardResult merged;
  std::vector<PartialResult> partials;
  std::vector<std::string> doc_names;
  std::vector<std::string> describes;
  for (ShardPartialResult& shard : shards) {
    PartialResult& partial = partials.emplace_back();
    for (ShardResultNode& node : shard.nodes) {
      partial.nodes.push_back(std::move(node.node));
      partial.di.push_back(std::move(node.di));
      doc_names.push_back(std::move(node.doc_name));
      describes.push_back(std::move(node.describe));
    }
    partial.merged_list_size = shard.merged_list_size;
    partial.candidate_count = shard.candidate_count;
    partial.plan.strategy = shard.plan;
    merged.epoch = std::max(merged.epoch, shard.epoch);
  }
  MergedPartials result = MergePartials(query, options, std::move(partials));
  merged.response = std::move(result.response);
  for (size_t source : result.sources) {
    merged.doc_names.push_back(std::move(doc_names[source]));
    merged.describes.push_back(std::move(describes[source]));
  }
  return merged;
}

}  // namespace gks
