#ifndef PERFBENCH_DECOMPOSE_H_
#define PERFBENCH_DECOMPOSE_H_

#include <cstdint>
#include <string>

#include "bench.h"
#include "core/query.h"
#include "core/searcher.h"
#include "index/xml_index.h"

namespace perfbench {

// Work counts summed over the decomposed queries.
struct DecomposeCounters {
  uint64_t queries = 0;
  uint64_t probe_planned = 0;   // probe or hybrid strategy ran in full
  uint64_t topk_engaged = 0;
  uint64_t topk_docs_skipped = 0;
  uint64_t topk_docs_total = 0;  // documents in the index, per engaged query
  uint64_t topk_blocks_skipped = 0;
  uint64_t sl_postings = 0;      // |S_L| (reduced S_L on probe plans)
  uint64_t candidates = 0;
  uint64_t lce_candidates = 0;   // LCP candidates handed to LCE mapping
  uint64_t lce_nodes = 0;        // GKS nodes LCE mapping produced
};

// Runs `query` through ChoosePlan and the chosen path's public stage
// functions, then the sort, DiscoverDi and SuggestRefinements, recording
// a bench span per stage under a "core.search" root span.
gks::SearchResponse DecomposedSearch(const gks::XmlIndex& index,
                                     const gks::Query& query,
                                     const gks::SearchOptions& options,
                                     uint64_t request_id,
                                     DecomposeCounters* counters);

// Node ids, rank bits, keyword masks, DI and refinements all equal.
bool SameAnswer(const gks::SearchResponse& a, const gks::SearchResponse& b,
                std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_DECOMPOSE_H_
