// Seeded query streams drawn from a corpus's own vocabulary, and the shape
// report that says what a stream exercises.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <set>
#include <unordered_map>

#include "bench.h"
#include "common/json_writer.h"
#include "core/planner.h"
#include "core/query.h"

namespace perfbench {
namespace {

// Portable uniform double in [0, 1) from a 64-bit engine, so a seed gives
// the same inputs whatever the standard library's distributions do.
double Unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// Low-discrepancy fractions: fixed shares hold in every prefix of the
// stream, so short and long runs see the same mix.
double Golden(size_t i, double offset) {
  double x = offset + static_cast<double>(i) * 0.6180339887498949;
  return x - std::floor(x);
}

}  // namespace

std::vector<TermStat> Vocabulary(const gks::XmlIndex& index) {
  std::vector<TermStat> vocab;
  index.inverted.ForEach([&](const std::string& term,
                             const gks::PostingList& list) {
    gks::Result<gks::Query> parsed = gks::Query::Parse(term);
    if (!parsed.ok() || parsed->size() != 1 ||
        parsed->atoms()[0].terms.size() != 1 ||
        parsed->atoms()[0].terms[0] != term) {
      return;  // stop word, or not stable under query analysis
    }
    vocab.push_back({term, static_cast<uint64_t>(list.size())});
  });
  std::sort(vocab.begin(), vocab.end(),
            [](const TermStat& a, const TermStat& b) { return a.term < b.term; });
  return vocab;
}

std::vector<QuerySpec> DrawQueries(const std::vector<TermStat>& vocab,
                                   uint32_t seed, size_t count,
                                   std::array<double, 3> mix,
                                   double s_all_share, double df_power,
                                   double max_df_share) {
  std::mt19937_64 rng(0x9e3779b97f4a7c15ull ^ seed);
  double postings = 0.0;
  for (const TermStat& t : vocab) postings += static_cast<double>(t.df);
  // Terms in descending document frequency, so nearby points of the
  // weight CDF are terms of similar cost.
  std::vector<const TermStat*> order;
  for (const TermStat& t : vocab) {
    if (static_cast<double>(t.df) <= max_df_share * postings) {
      order.push_back(&t);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const TermStat* a, const TermStat* b) {
                     return a->df > b->df;
                   });
  std::vector<double> cumulative;
  double total = 0.0;
  for (const TermStat* t : order) {
    total += std::pow(static_cast<double>(t->df), df_power);
    cumulative.push_back(total);
  }
  // Stratified draws: per keyword position, a seed-shifted low-discrepancy
  // walk over the CDF (steps sqrt(2), sqrt(3), sqrt(5) mod 1, so the
  // positions spread over every combination of terms) with a little seeded
  // jitter. Every prefix of the stream then takes heavy and light terms in
  // their weighted shares whatever the seed, which keeps the cost mix of a
  // run, and so its figures, steady across seeds.
  const std::array<double, 3> steps = {0.41421356237309515, 0.7320508075688772,
                                       0.2360679774997898};
  std::array<double, 3> offsets = {Unit(rng), Unit(rng), Unit(rng)};
  std::array<uint64_t, 3> draws{};
  auto draw_term = [&](size_t position) -> const std::string& {
    double u = offsets[position] +
               static_cast<double>(draws[position]++) * steps[position] +
               (Unit(rng) - 0.5) * 0.02;
    u -= std::floor(u);
    size_t at = std::upper_bound(cumulative.begin(), cumulative.end(),
                                 u * total) -
                cumulative.begin();
    return order[std::min(at, order.size() - 1)]->term;
  };
  std::vector<QuerySpec> out;
  std::set<std::string> seen;
  const uint32_t max_keywords =
      static_cast<uint32_t>(std::min<size_t>(3, order.size()));
  // A small vocabulary holds only so many distinct one-keyword queries:
  // once a keyword count finds no fresh query in kMaxTries draws in a row,
  // its later slots take the next count. The stream's prefix up to that
  // point is the same whatever `count` is.
  constexpr size_t kMaxTries = 20000;
  uint32_t fewest_keywords = 1;
  for (size_t tries = 0; out.size() < count;) {
    size_t slot = out.size();
    double f = Golden(slot, 0.0);
    uint32_t keywords = f < mix[0] ? 1 : f < mix[0] + mix[1] ? 2 : 3;
    keywords = std::min(std::max(keywords, fewest_keywords), max_keywords);
    if (++tries > kMaxTries) {
      if (keywords == max_keywords) break;
      fewest_keywords = keywords + 1;
      tries = 0;
      continue;
    }
    std::vector<std::string> terms;
    while (terms.size() < keywords) {
      const std::string& term = draw_term(terms.size());
      if (std::find(terms.begin(), terms.end(), term) == terms.end()) {
        terms.push_back(term);
      }
    }
    QuerySpec spec;
    spec.keywords = keywords;
    spec.s = keywords > 1 && Golden(slot, 0.37) < s_all_share ? 0 : 1;
    std::vector<std::string> sorted = terms;
    std::sort(sorted.begin(), sorted.end());
    std::string key = std::to_string(spec.s);
    for (const std::string& t : sorted) key += "|" + t;
    if (!seen.insert(key).second) continue;
    for (const std::string& t : terms) {
      if (!spec.text.empty()) spec.text += ' ';
      spec.text += t;
    }
    out.push_back(std::move(spec));
    tries = 0;
  }
  return out;
}

std::vector<uint32_t> ZipfStream(uint32_t seed, size_t pool, size_t length,
                                 double theta) {
  std::mt19937_64 rng(0xc2b2ae3d27d4eb4full ^ seed);
  std::vector<double> cumulative(pool);
  double total = 0.0;
  for (size_t r = 0; r < pool; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cumulative[r] = total;
  }
  // The same stratified walk as the term draws: each rank's share of any
  // prefix of the stream stays close to its Zipf weight.
  const double offset = Unit(rng);
  std::vector<uint32_t> out(length);
  for (size_t k = 0; k < length; ++k) {
    double u = offset + static_cast<double>(k) * 0.6180339887498949 +
               (Unit(rng) - 0.5) * 0.02;
    u -= std::floor(u);
    size_t at = std::upper_bound(cumulative.begin(), cumulative.end(),
                                 u * total) -
                cumulative.begin();
    out[k] = static_cast<uint32_t>(std::min(at, pool - 1));
  }
  return out;
}

void OrderForZipf(const std::vector<TermStat>& vocab,
                  std::vector<QuerySpec>* pool) {
  std::unordered_map<std::string, uint64_t> df;
  for (const TermStat& t : vocab) df[t.term] = t.df;
  // Cost proxy: summed postings for s=1 (any keyword matches), the
  // smallest list for s=|Q| (every keyword must).
  auto cost = [&](const QuerySpec& q) {
    uint64_t total = 0, smallest = UINT64_MAX;
    size_t start = 0;
    while (start <= q.text.size()) {
      size_t end = q.text.find(' ', start);
      if (end == std::string::npos) end = q.text.size();
      uint64_t n = df[q.text.substr(start, end - start)];
      total += n;
      smallest = std::min(smallest, n);
      start = end + 1;
    }
    return q.s == 0 ? smallest : total;
  };
  const size_t n = pool->size();
  std::vector<size_t> by_cost(n);
  for (size_t i = 0; i < n; ++i) by_cost[i] = i;
  std::stable_sort(by_cost.begin(), by_cost.end(), [&](size_t a, size_t b) {
    return cost((*pool)[a]) < cost((*pool)[b]);
  });
  // Rank r takes the cost quantile Golden(r), pulled toward the median for
  // the 32 most popular ranks: the head, which carries most of the
  // traffic, holds middling queries whatever the seed, and the tail spreads
  // over the whole cost range.
  auto target = [](size_t r) {
    double squeeze = std::min(1.0, static_cast<double>(r + 1) / 32.0);
    return 0.5 + (Golden(r, 0.5) - 0.5) * squeeze;
  };
  std::vector<size_t> ranks(n);
  for (size_t r = 0; r < n; ++r) ranks[r] = r;
  std::stable_sort(ranks.begin(), ranks.end(), [&](size_t a, size_t b) {
    return target(a) < target(b);
  });
  std::vector<QuerySpec> ordered(n);
  for (size_t k = 0; k < n; ++k) ordered[ranks[k]] = (*pool)[by_cost[k]];
  *pool = std::move(ordered);
}

std::string QueryLine(const QuerySpec& spec, size_t top, uint32_t top_k,
                      bool refine) {
  gks::JsonWriter json;
  json.BeginObject();
  json.Key("query").String(spec.text);
  json.Key("s").UInt(spec.s);
  json.Key("top").UInt(top);
  if (top_k > 0) json.Key("top_k").UInt(top_k);
  if (refine) json.Key("refine").Bool(true);
  json.EndObject();
  return json.Take();
}

ShapeReport Shape(const gks::XmlIndex& index,
                  const std::vector<QuerySpec>& pool,
                  const std::vector<uint32_t>& sent, uint32_t top_k,
                  size_t cache_capacity) {
  ShapeReport shape;
  shape.sent = sent.size();
  shape.cache_capacity = cache_capacity;
  if (sent.empty()) return shape;
  std::unordered_map<uint32_t, uint64_t> occurrences;
  for (uint32_t q : sent) ++occurrences[q];
  shape.distinct = occurrences.size();
  shape.repeat_rate =
      1.0 - static_cast<double>(shape.distinct) / static_cast<double>(sent.size());
  const double n = static_cast<double>(sent.size());
  for (const auto& [q, count] : occurrences) {
    const QuerySpec& spec = pool[q];
    const double w = static_cast<double>(count) / n;
    shape.keyword_share[std::min<uint32_t>(spec.keywords, 3) - 1] += w;
    if (spec.s == 0 && spec.keywords > 1) shape.s_all_share += w;
    gks::Result<gks::Query> query = gks::Query::Parse(spec.text);
    if (!query.ok()) continue;
    uint32_t s = spec.s == 0 ? static_cast<uint32_t>(query->size())
                             : std::min<uint32_t>(spec.s, query->size());
    gks::PlannerDecision plan =
        gks::ChoosePlan(index, *query, s, gks::PlanMode::kAuto, top_k);
    switch (plan.info.strategy) {
      case gks::PlanMode::kProbe: shape.probe_share += w; break;
      case gks::PlanMode::kHybrid: shape.hybrid_share += w; break;
      default: shape.merge_share += w; break;
    }
    if (plan.info.topk.engaged) shape.topk_engaged_share += w;
  }
  return shape;
}

std::vector<std::string> CheckShape(const ShapeReport& shape,
                                    const ShapeBounds& bounds) {
  std::vector<std::string> misses;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) misses.push_back(what);
  };
  check(shape.repeat_rate >= bounds.min_repeat &&
            shape.repeat_rate <= bounds.max_repeat,
        "repeat_rate outside [" + std::to_string(bounds.min_repeat) + ", " +
            std::to_string(bounds.max_repeat) + "]");
  check(!bounds.distinct_over_cache || shape.distinct > shape.cache_capacity,
        "distinct queries do not exceed the cache capacity");
  check(shape.s_all_share >= bounds.min_s_all, "s=|Q| share below bound");
  check(shape.topk_engaged_share >= bounds.min_topk_engaged,
        "top-k engaged share below bound");
  check(shape.probe_share + shape.hybrid_share >= bounds.min_probe,
        "probe/hybrid share below bound");
  return misses;
}

std::string ShapeReport::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "shape: sent=%zu keywords(1/2/3)=%.3f/%.3f/%.3f s=|Q|=%.3f "
      "plan(merge/probe/hybrid)=%.3f/%.3f/%.3f topk_engaged=%.3f "
      "distinct=%zu cache_capacity=%zu repeat_rate=%.3f",
      sent, keyword_share[0], keyword_share[1], keyword_share[2], s_all_share,
      merge_share, probe_share, hybrid_share, topk_engaged_share, distinct,
      cache_capacity, repeat_rate);
  return buf;
}

}  // namespace perfbench
