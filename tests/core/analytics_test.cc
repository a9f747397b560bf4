#include "core/analytics.h"

#include <cstdint>

#include "gtest/gtest.h"
#include "core/searcher.h"
#include "data/figures.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromXml;
using gks::testing::SearchOrDie;

constexpr const char* kLibraryXml = R"(<library>
  <book>
    <title>alpha systems</title><year>1998</year><price>30</price>
    <copy>c1</copy><copy>c2</copy>
  </book>
  <book>
    <title>beta systems</title><year>2001</year><price>45</price>
    <copy>c1</copy><copy>c2</copy>
  </book>
  <book>
    <title>gamma systems</title><year>2001</year><price>60</price>
    <copy>c1</copy><copy>c2</copy>
  </book>
</library>)";

class AnalyticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index_ = BuildIndexFromXml(kLibraryXml);
    SearchOptions options;
    options.s = 1;
    response_ = SearchOrDie(index_, "systems", options);
    ASSERT_EQ(response_.nodes.size(), 3u);
  }

  XmlIndex index_;
  SearchResponse response_;
};

TEST_F(AnalyticsTest, FacetsGroupByTagAndValue) {
  std::vector<Facet> facets = ComputeFacets(index_, response_.nodes);
  ASSERT_FALSE(facets.empty());
  const Facet* year = nullptr;
  for (const Facet& facet : facets) {
    if (facet.tag == "year") year = &facet;
  }
  ASSERT_NE(year, nullptr);
  ASSERT_EQ(year->buckets.size(), 2u);
  EXPECT_EQ(year->buckets[0].value, "2001");  // two books
  EXPECT_EQ(year->buckets[0].count, 2u);
  EXPECT_EQ(year->buckets[1].value, "1998");
  EXPECT_EQ(year->buckets[1].count, 1u);
  EXPECT_GT(year->buckets[0].rank_mass, 0.0);
}

TEST_F(AnalyticsTest, FacetLimitsRespected) {
  FacetOptions options;
  options.max_facets = 1;
  options.max_buckets_per_facet = 1;
  std::vector<Facet> facets = ComputeFacets(index_, response_.nodes, options);
  ASSERT_EQ(facets.size(), 1u);
  EXPECT_EQ(facets[0].buckets.size(), 1u);
}

TEST_F(AnalyticsTest, AggregateNumeric) {
  Result<NumericSummary> price =
      AggregateNumeric(index_, response_.nodes, "price");
  ASSERT_TRUE(price.ok()) << price.status().ToString();
  EXPECT_EQ(price->count, 3u);
  EXPECT_DOUBLE_EQ(price->min, 30.0);
  EXPECT_DOUBLE_EQ(price->max, 60.0);
  EXPECT_DOUBLE_EQ(price->mean, 45.0);
  EXPECT_DOUBLE_EQ(price->sum, 135.0);
}

TEST_F(AnalyticsTest, AggregateSkipsNonNumeric) {
  Result<NumericSummary> title =
      AggregateNumeric(index_, response_.nodes, "title");
  ASSERT_TRUE(title.ok());
  EXPECT_EQ(title->count, 0u);
  EXPECT_EQ(title->skipped, 3u);
}

TEST_F(AnalyticsTest, AggregateUnknownTagIsNotFound) {
  Result<NumericSummary> nope =
      AggregateNumeric(index_, response_.nodes, "nope");
  ASSERT_FALSE(nope.ok());
  EXPECT_EQ(nope.status().code(), StatusCode::kNotFound);
}

TEST_F(AnalyticsTest, Histogram) {
  Result<std::vector<HistogramBucket>> histogram =
      NumericHistogram(index_, response_.nodes, "price", 3);
  ASSERT_TRUE(histogram.ok());
  ASSERT_EQ(histogram->size(), 3u);
  uint64_t total = 0;
  for (const HistogramBucket& bucket : *histogram) total += bucket.count;
  EXPECT_EQ(total, 3u);
  EXPECT_EQ((*histogram)[0].count, 1u);  // 30
  EXPECT_EQ((*histogram)[2].count, 1u);  // 60 (upper edge inclusive)
  EXPECT_DOUBLE_EQ((*histogram)[0].lo, 30.0);
  EXPECT_DOUBLE_EQ((*histogram)[2].hi, 60.0);
}

TEST_F(AnalyticsTest, HistogramRejectsOutOfRangeBucketCounts) {
  EXPECT_FALSE(NumericHistogram(index_, response_.nodes, "price", 0).ok());
  // `gks analyze --hist=TAG:-1` arrives as SIZE_MAX.
  EXPECT_FALSE(
      NumericHistogram(index_, response_.nodes, "price", SIZE_MAX).ok());
  EXPECT_FALSE(NumericHistogram(index_, response_.nodes, "price",
                                kMaxHistogramBuckets + 1)
                   .ok());
}

TEST_F(AnalyticsTest, FacetsOnFigure2aExposeCourseNames) {
  XmlIndex index = BuildIndexFromXml(data::Figure2aXml());
  SearchOptions options;
  options.s = 1;
  SearchResponse response = SearchOrDie(index, "karen mike john", options);
  std::vector<Facet> facets = ComputeFacets(index, response.nodes);
  bool found_name_facet = false;
  for (const Facet& facet : facets) {
    if (facet.tag != "Name") continue;
    found_name_facet = true;
    bool has_dm = false;
    for (const FacetBucket& bucket : facet.buckets) {
      if (bucket.value == "Data Mining") has_dm = true;
    }
    EXPECT_TRUE(has_dm);
  }
  EXPECT_TRUE(found_name_facet);
}

}  // namespace
}  // namespace gks
