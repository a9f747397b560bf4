#include "core/partial_merge.h"

#include <algorithm>
#include <utility>

#include "common/trace.h"
#include "core/refinement.h"

namespace gks {

MergedPartials MergePartials(const Query& query, const SearchOptions& options,
                             std::vector<PartialResult> partials,
                             const std::vector<uint32_t>* deleted) {
  MergedPartials merged;
  SearchResponse& response = merged.response;
  const uint32_t query_size = static_cast<uint32_t>(query.size());
  response.effective_s =
      std::min<uint32_t>(options.s == 0 ? query_size : options.s, query_size);

  // Every surviving node, by reference into its partial.
  struct Entry {
    GksNode* node;
    uint32_t partial;
    uint32_t position;
  };
  std::vector<Entry> entries;
  std::vector<size_t> offsets;  // partial -> first concatenated position
  size_t concatenated = 0;
  size_t dominant = 0;
  for (uint32_t p = 0; p < partials.size(); ++p) {
    PartialResult& partial = partials[p];
    offsets.push_back(concatenated);
    concatenated += partial.nodes.size();
    for (uint32_t i = 0; i < partial.nodes.size(); ++i) {
      GksNode& node = partial.nodes[i];
      if (deleted != nullptr &&
          std::binary_search(deleted->begin(), deleted->end(),
                             node.id.doc_id())) {
        continue;
      }
      entries.push_back({&node, p, i});
    }
    response.merged_list_size += partial.merged_list_size;
    response.candidate_count += partial.candidate_count;
    if (partial.merged_list_size > partials[dominant].merged_list_size) {
      dominant = p;
    }
  }
  if (!partials.empty()) response.plan = std::move(partials[dominant].plan);

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return RanksBefore(*a.node, *b.node);
            });
  if (options.top_k > 0 && entries.size() > options.top_k) {
    entries.resize(options.top_k);
  }
  response.nodes.reserve(entries.size());
  for (const Entry& entry : entries) {
    if (entry.node->is_lce) ++response.lce_count;
    response.nodes.push_back(std::move(*entry.node));
  }

  if (options.discover_di) {
    ScopedSpan span("di");
    DiOptions di_options;
    di_options.top_m = options.di_top_m;
    DiAccumulator accumulator;
    for (size_t n = 0; n < entries.size(); ++n) {
      const PartialResult& partial = partials[entries[n].partial];
      const GksNode& node = response.nodes[n];
      if (partial.index != nullptr) {
        accumulator.Add(*partial.index, node, query, di_options);
      } else if (entries[n].position < partial.di.size()) {
        accumulator.Add(partial.di[entries[n].position], node.rank);
      }
    }
    response.insights = accumulator.Finish(options.di_top_m);
    span.AddItems(response.insights.size());
  }
  if (options.suggest_refinements) {
    ScopedSpan span("refinement");
    response.refinements =
        SuggestRefinements(query, response.nodes, response.insights);
    span.AddItems(response.refinements.size());
  }
  if (options.max_results > 0 && entries.size() > options.max_results) {
    entries.resize(options.max_results);
    response.nodes.resize(options.max_results);
  }

  merged.sources.reserve(entries.size());
  for (const Entry& entry : entries) {
    merged.sources.push_back(offsets[entry.partial] + entry.position);
  }
  return merged;
}

}  // namespace gks
