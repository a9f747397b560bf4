// Ablation: the potential-flow ranking (Sec. 5) vs two simpler strategies.
// Setup mirrors Sec. 7.6's observation: among nodes with the same number
// of query keywords, entries with fewer co-authors are more relevant. We
// pick articles with exactly k authors, query those k names, and measure
// where each strategy places the *minimal* article (the one whose author
// set equals the query) among all nodes containing all k keywords.
// Expected shape: potential flow places the minimal article first;
// count-only ranking cannot break the tie.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "xml/dom_builder.h"

namespace {

struct QueryCase {
  std::string query;
  std::string minimal_id;  // Dewey id string of the exactly-matching entry
};

// Finds up to `limit` articles with exactly `k` authors whose author set
// occurs nowhere with fewer co-authors; the query is those k names.
std::vector<QueryCase> FindCases(const std::string& xml, size_t k,
                                 size_t limit) {
  std::vector<QueryCase> cases;
  gks::Result<gks::xml::DomDocument> dom = gks::xml::ParseDom(xml);
  if (!dom.ok()) return cases;
  const auto& entries = dom->root()->children();
  for (size_t e = 0; e < entries.size() && cases.size() < limit; ++e) {
    std::vector<std::string> authors;
    for (const auto& field : entries[e]->children()) {
      if (field->is_element() && field->name() == "author") {
        authors.push_back(field->InnerText());
      }
    }
    if (authors.size() != k) continue;
    QueryCase query_case;
    for (const std::string& author : authors) {
      if (!query_case.query.empty()) query_case.query += " ";
      query_case.query += "\"" + author + "\"";
    }
    // d0.0.<e> — entries are direct children of the dblp root.
    query_case.minimal_id = "d0.0." + std::to_string(e);
    cases.push_back(std::move(query_case));
  }
  return cases;
}

// Author count per top-level entry ordinal (index into dblp root children).
std::map<uint32_t, uint32_t> AuthorCounts(const std::string& xml) {
  std::map<uint32_t, uint32_t> counts;
  gks::Result<gks::xml::DomDocument> dom = gks::xml::ParseDom(xml);
  if (!dom.ok()) return counts;
  const auto& entries = dom->root()->children();
  for (size_t e = 0; e < entries.size(); ++e) {
    uint32_t authors = 0;
    for (const auto& field : entries[e]->children()) {
      if (field->is_element() && field->name() == "author") ++authors;
    }
    counts[static_cast<uint32_t>(e)] = authors;
  }
  return counts;
}

// Authors of the article a response node denotes (entries are d0.0.<e>).
uint32_t AuthorsOf(const std::map<uint32_t, uint32_t>& counts,
                   const gks::GksNode& node) {
  const auto& components = node.id.components();
  if (components.size() < 3) return 0;
  auto it = counts.find(components[2]);
  return it == counts.end() ? 0 : it->second;
}

}  // namespace

int main() {
  std::printf("Ablation: potential-flow ranking vs alternatives "
              "(scale=%.2f)\n\n", gks::bench::Scale());
  gks::bench::Corpus dblp = gks::bench::MakeDblp();
  gks::XmlIndex index = gks::bench::BuildIndex(dblp);

  std::map<uint32_t, uint32_t> author_counts =
      AuthorCounts(dblp.documents[0].second);

  // Among the nodes containing ALL k query authors, a strategy is better
  // the fewer extra co-authors its top pick has (Sec. 7.6: "two <article>
  // nodes ... were ranked higher as they were the only authors").
  std::printf("avg co-authors of the top-ranked full match:\n");
  std::printf("%4s | %12s | %12s | %12s | %8s\n", "k", "flow", "count-only",
              "doc-order", "queries");
  std::printf("%s\n", std::string(60, '-').c_str());

  for (size_t k : {2u, 3u, 4u}) {
    std::vector<QueryCase> cases =
        FindCases(dblp.documents[0].second, k, 15);
    double flow_sum = 0, count_sum = 0, doc_sum = 0;
    size_t measured = 0;
    for (const QueryCase& query_case : cases) {
      gks::SearchResponse response =
          gks::bench::RunQuery(index, query_case.query, 1);
      // The tie group: nodes containing ALL k keywords.
      std::vector<const gks::GksNode*> full;
      for (const gks::GksNode& node : response.nodes) {
        if (node.keyword_count == k) full.push_back(&node);
      }
      if (full.size() < 2) continue;  // no tie to break
      ++measured;

      // (a) potential flow: the searcher's order (already rank-sorted).
      flow_sum += AuthorsOf(author_counts, *full.front());

      // (b) keyword count only: cannot split the tie group; its top pick
      // is effectively the document-order first (stable fallback).
      // (c) plain document order: same pick, spelled out.
      std::vector<const gks::GksNode*> by_doc = full;
      std::sort(by_doc.begin(), by_doc.end(),
                [](const gks::GksNode* a, const gks::GksNode* b) {
                  return a->id < b->id;
                });
      count_sum += AuthorsOf(author_counts, *by_doc.front());
      doc_sum += AuthorsOf(author_counts, *by_doc.front());
    }
    if (measured == 0) {
      std::printf("%4zu |        (no tied cases found)\n", k);
      continue;
    }
    std::printf("%4zu | %12.2f | %12.2f | %12.2f | %8zu\n", k,
                flow_sum / measured, count_sum / measured, doc_sum / measured,
                measured);
  }
  std::printf("\nExpected shape: the flow column stays near k (the exact\n"
              "co-author group wins); tie-blind strategies average the\n"
              "co-author counts of whatever entry comes first.\n");
  return 0;
}
