// The traced pipeline: one query run through the engine's public stage
// functions in the same order GksSearcher::Search runs them, with a bench
// span around each stage, then checked against GksSearcher::Search.
#include "decompose.h"

#include <algorithm>
#include <cstring>

#include "core/arena.h"
#include "core/merged_list.h"
#include "core/planner.h"
#include "core/probe_eval.h"
#include "core/topk_eval.h"
#include "core/window_scan.h"

namespace perfbench {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

gks::SearchResponse DecomposedSearch(const gks::XmlIndex& index,
                                     const gks::Query& query,
                                     const gks::SearchOptions& options,
                                     uint64_t request_id,
                                     DecomposeCounters* counters) {
  Span root("core.search", request_id);
  gks::SearchResponse response;
  uint32_t s = options.s == 0 ? static_cast<uint32_t>(query.size())
                              : options.s;
  s = std::min<uint32_t>(s, static_cast<uint32_t>(query.size()));
  response.effective_s = s;
  gks::QueryArena& arena = gks::QueryArena::ThreadLocal();

  gks::PlannerDecision decision = [&] {
    Span span("core.plan");
    return gks::ChoosePlan(index, query, s, options.plan, options.top_k,
                           options.topk_scan_floor);
  }();
  response.plan = decision.info;

  if (response.plan.topk.engaged) {
    Span span("core.topk");
    gks::TopKResult topk =
        gks::EvaluateTopK(index, query, s, options.top_k, &arena);
    response.nodes = std::move(topk.nodes);
    response.merged_list_size = topk.merged_list_size;
    response.candidate_count = topk.candidate_count;
    counters->topk_engaged += 1;
    counters->topk_docs_skipped += topk.stats.docs_skipped;
    counters->topk_blocks_skipped += topk.stats.blocks_skipped;
    counters->topk_docs_total += index.catalog.document_count();
  } else if (response.plan.strategy == gks::PlanMode::kMerge) {
    gks::MergedList sl = [&] {
      Span span("core.merge");
      return gks::MergedList::Build(index, query, &arena);
    }();
    response.merged_list_size = sl.size();
    std::vector<gks::LcpCandidate> candidates = [&] {
      Span span("core.window");
      return gks::ComputeLcpCandidates(sl, s);
    }();
    response.candidate_count = candidates.size();
    {
      Span span("core.lce");
      response.nodes = gks::ComputeGksNodes(index, sl, candidates);
    }
    counters->lce_candidates += candidates.size();
    counters->lce_nodes += response.nodes.size();
    sl.ReleaseTo(&arena);
  } else {
    gks::ProbeEvaluator eval(index, query, s, decision.probe, &arena);
    {
      Span probe("core.probe");
      {
        Span span("core.probe.prepare");
        eval.PrepareLists();
      }
      {
        Span span("core.probe.scan");
        eval.RunVirtualScan();
      }
      {
        Span span("core.probe.prune");
        eval.PruneCandidates();
      }
      {
        Span span("core.probe.gather");
        eval.GatherReduced();
      }
    }
    response.merged_list_size = eval.merged_size();
    response.candidate_count = eval.candidates().size();
    {
      Span span("core.lce");
      response.nodes =
          gks::ComputeGksNodesPruned(index, eval.reduced(), eval.pruned());
    }
    counters->lce_candidates += eval.candidates().size();
    counters->lce_nodes += response.nodes.size();
  }
  if (!response.plan.topk.engaged) {
    std::sort(response.nodes.begin(), response.nodes.end(),
              [](const gks::GksNode& a, const gks::GksNode& b) {
                if (a.rank != b.rank) return a.rank > b.rank;
                if (a.keyword_count != b.keyword_count) {
                  return a.keyword_count > b.keyword_count;
                }
                return a.id < b.id;
              });
    if (response.plan.topk.k > 0 &&
        response.nodes.size() > response.plan.topk.k) {
      response.nodes.resize(response.plan.topk.k);
    }
  }
  for (const gks::GksNode& node : response.nodes) {
    if (node.is_lce) ++response.lce_count;
  }
  if (options.discover_di) {
    Span span("core.di");
    gks::DiOptions di_options;
    di_options.top_m = options.di_top_m;
    response.insights =
        gks::DiscoverDi(index, response.nodes, query, di_options);
  }
  if (options.suggest_refinements) {
    Span span("core.refine");
    response.refinements = gks::SuggestRefinements(query, response.nodes,
                                                   response.insights);
  }
  if (options.max_results > 0 && response.nodes.size() > options.max_results) {
    response.nodes.resize(options.max_results);
  }
  counters->queries += 1;
  counters->sl_postings += response.merged_list_size;
  counters->candidates += response.candidate_count;
  if (response.plan.strategy != gks::PlanMode::kMerge &&
      !response.plan.topk.engaged) {
    counters->probe_planned += 1;
  }
  return response;
}

bool SameAnswer(const gks::SearchResponse& a, const gks::SearchResponse& b,
                std::string* why) {
  if (a.nodes.size() != b.nodes.size()) {
    *why = "node count " + std::to_string(a.nodes.size()) + " vs " +
           std::to_string(b.nodes.size());
    return false;
  }
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    const gks::GksNode& x = a.nodes[i];
    const gks::GksNode& y = b.nodes[i];
    if (!(x.id == y.id) || !SameBits(x.rank, y.rank) ||
        x.keyword_mask != y.keyword_mask || x.is_lce != y.is_lce) {
      *why = "node " + std::to_string(i) + ": " + x.id.ToString() + " vs " +
             y.id.ToString();
      return false;
    }
  }
  if (a.insights.size() != b.insights.size()) {
    *why = "DI count differs";
    return false;
  }
  for (size_t i = 0; i < a.insights.size(); ++i) {
    const gks::DiKeyword& x = a.insights[i];
    const gks::DiKeyword& y = b.insights[i];
    if (x.value != y.value || x.path != y.path ||
        !SameBits(x.weight, y.weight) || x.support != y.support) {
      *why = "DI " + std::to_string(i) + ": " + x.value + " vs " + y.value;
      return false;
    }
  }
  if (a.refinements.size() != b.refinements.size()) {
    *why = "refinement count differs";
    return false;
  }
  for (size_t i = 0; i < a.refinements.size(); ++i) {
    const gks::RefinementSuggestion& x = a.refinements[i];
    const gks::RefinementSuggestion& y = b.refinements[i];
    if (x.kind != y.kind || x.keywords != y.keywords ||
        !SameBits(x.score, y.score) || x.rationale != y.rationale) {
      *why = "refinement " + std::to_string(i) + " differs";
      return false;
    }
  }
  if (a.plan.strategy != b.plan.strategy ||
      a.plan.topk.engaged != b.plan.topk.engaged) {
    *why = "plan differs";
    return false;
  }
  return true;
}

}  // namespace perfbench
