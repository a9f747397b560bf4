// Google-benchmark microbenchmarks for the core building blocks: text
// analysis, k-way merge, window scan, LCE mapping, ranking, entity lookup
// and index serialization.

#include <benchmark/benchmark.h>

#include "baseline/match_trie.h"
#include "baseline/stack_scan.h"
#include "bench/bench_util.h"
#include "core/lce.h"
#include "core/merged_list.h"
#include "core/window_scan.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"

namespace {

const gks::XmlIndex& SigmodIndex() {
  static const gks::XmlIndex& index = *new gks::XmlIndex(
      gks::bench::BuildIndex(gks::bench::MakeSigmod()));
  return index;
}

const gks::Query& AuthorQuery() {
  static const gks::Query& query = *new gks::Query([] {
    auto parsed = gks::Query::Parse(
        "\"Peter Buneman\" \"Wenfei Fan\" \"Scott Weinstein\" "
        "\"Karen Agarwal\"");
    if (!parsed.ok()) std::abort();
    return std::move(parsed).value();
  }());
  return query;
}

void BM_PorterStem(benchmark::State& state) {
  const char* words[] = {"relational", "databases", "optimization",
                         "concurrency", "probabilistic"};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gks::text::PorterStem(words[i++ % 5]));
  }
}
BENCHMARK(BM_PorterStem);

void BM_Tokenize(benchmark::State& state) {
  std::string text =
      "Efficient Keyword Search for Smallest LCAs in XML Databases, 2005";
  for (auto _ : state) {
    benchmark::DoNotOptimize(gks::text::Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize);

void BM_KWayMerge(benchmark::State& state) {
  const gks::XmlIndex& index = SigmodIndex();
  const gks::Query& query = AuthorQuery();
  for (auto _ : state) {
    gks::MergedList sl = gks::MergedList::Build(index, query);
    benchmark::DoNotOptimize(sl.size());
  }
  state.counters["|S_L|"] = static_cast<double>(
      gks::MergedList::Build(index, query).size());
}
BENCHMARK(BM_KWayMerge);

void BM_WindowScan(benchmark::State& state) {
  const gks::XmlIndex& index = SigmodIndex();
  gks::MergedList sl = gks::MergedList::Build(index, AuthorQuery());
  for (auto _ : state) {
    auto candidates = gks::ComputeLcpCandidates(sl, 2);
    benchmark::DoNotOptimize(candidates.size());
  }
}
BENCHMARK(BM_WindowScan);

void BM_LceMapping(benchmark::State& state) {
  const gks::XmlIndex& index = SigmodIndex();
  gks::MergedList sl = gks::MergedList::Build(index, AuthorQuery());
  auto candidates = gks::ComputeLcpCandidates(sl, 2);
  for (auto _ : state) {
    auto nodes = gks::ComputeGksNodes(index, sl, candidates);
    benchmark::DoNotOptimize(nodes.size());
  }
}
BENCHMARK(BM_LceMapping);

void BM_FullSearch(benchmark::State& state) {
  const gks::XmlIndex& index = SigmodIndex();
  gks::GksSearcher searcher(&index);
  gks::SearchOptions options;
  options.s = 2;
  options.discover_di = false;
  options.suggest_refinements = false;
  for (auto _ : state) {
    auto response = searcher.Search(AuthorQuery(), options);
    benchmark::DoNotOptimize(response.ok());
  }
}
BENCHMARK(BM_FullSearch);

void BM_SlcaTrie(benchmark::State& state) {
  const gks::XmlIndex& index = SigmodIndex();
  gks::MergedList sl = gks::MergedList::Build(index, AuthorQuery());
  for (auto _ : state) {
    gks::MatchTrie trie(sl, AuthorQuery().size());
    benchmark::DoNotOptimize(trie.ComputeSlcas().size());
  }
}
BENCHMARK(BM_SlcaTrie);

void BM_SlcaElcaStack(benchmark::State& state) {
  const gks::XmlIndex& index = SigmodIndex();
  gks::MergedList sl = gks::MergedList::Build(index, AuthorQuery());
  for (auto _ : state) {
    auto result = gks::ComputeSlcaElcaByStack(sl, AuthorQuery().size());
    benchmark::DoNotOptimize(result.slcas.size());
  }
}
BENCHMARK(BM_SlcaElcaStack);

void BM_EntityLookup(benchmark::State& state) {
  const gks::XmlIndex& index = SigmodIndex();
  gks::MergedList sl = gks::MergedList::Build(index, AuthorQuery());
  if (sl.empty()) {
    state.SkipWithError("empty merged list");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    std::vector<uint32_t> out;
    benchmark::DoNotOptimize(
        gks::LowestEntityOf(index, sl.IdAt(i++ % sl.size()), &out));
  }
}
BENCHMARK(BM_EntityLookup);

void BM_SerializeIndex(benchmark::State& state) {
  const gks::XmlIndex& index = SigmodIndex();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gks::SerializeIndex(index).size());
  }
}
BENCHMARK(BM_SerializeIndex);

}  // namespace

BENCHMARK_MAIN();
