#include "data/dataset.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.h"
#include "core/histogram.h"
#include "data/csv.h"
#include "data/longitudinal.h"
#include "data/synthetic.h"
#include "sim/closed_form.h"

namespace ldpr::data {
namespace {

Dataset SmallDataset() {
  Dataset ds({3, 2}, {"color", "flag"});
  ds.AddRecord({0, 1});
  ds.AddRecord({1, 0});
  ds.AddRecord({1, 1});
  ds.AddRecord({2, 1});
  return ds;
}

TEST(DatasetTest, BasicAccessors) {
  Dataset ds = SmallDataset();
  EXPECT_EQ(ds.n(), 4);
  EXPECT_EQ(ds.d(), 2);
  EXPECT_EQ(ds.domain_size(0), 3);
  EXPECT_EQ(ds.domain_size(1), 2);
  EXPECT_EQ(ds.attribute_name(0), "color");
  EXPECT_EQ(ds.value(2, 0), 1);
  EXPECT_EQ(ds.Record(3), (std::vector<int>{2, 1}));
  EXPECT_EQ(ds.Column(1), (std::vector<int>{1, 0, 1, 1}));
}

TEST(DatasetTest, DefaultAttributeNames) {
  Dataset ds({2, 2, 2});
  EXPECT_EQ(ds.attribute_name(0), "A0");
  EXPECT_EQ(ds.attribute_name(2), "A2");
}

TEST(DatasetTest, ValidatesConstruction) {
  EXPECT_THROW(Dataset({}), InvalidArgumentError);
  EXPECT_THROW(Dataset({1, 3}), InvalidArgumentError);
  EXPECT_THROW(Dataset({2, 2}, {"only-one"}), InvalidArgumentError);
}

TEST(DatasetTest, ValidatesRecords) {
  Dataset ds({3, 2});
  EXPECT_THROW(ds.AddRecord({0}), InvalidArgumentError);
  EXPECT_THROW(ds.AddRecord({3, 0}), InvalidArgumentError);
  EXPECT_THROW(ds.AddRecord({0, -1}), InvalidArgumentError);
  ds.AddRecord({2, 1});
  EXPECT_EQ(ds.n(), 1);
}

TEST(DatasetTest, ValidatesAccess) {
  Dataset ds = SmallDataset();
  EXPECT_THROW(ds.value(4, 0), InvalidArgumentError);
  EXPECT_THROW(ds.value(0, 2), InvalidArgumentError);
  EXPECT_THROW(ds.Column(-1), InvalidArgumentError);
  EXPECT_THROW(ds.domain_size(5), InvalidArgumentError);
}

TEST(DatasetTest, MarginalsMatchCounts) {
  Dataset ds = SmallDataset();
  auto m = ds.Marginals();
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0][0], 0.25);
  EXPECT_DOUBLE_EQ(m[0][1], 0.50);
  EXPECT_DOUBLE_EQ(m[0][2], 0.25);
  EXPECT_DOUBLE_EQ(m[1][0], 0.25);
  EXPECT_DOUBLE_EQ(m[1][1], 0.75);
}

TEST(DatasetTest, ProjectSelectsAndReorders) {
  Dataset ds = SmallDataset();
  Dataset proj = ds.Project({1, 0});
  EXPECT_EQ(proj.d(), 2);
  EXPECT_EQ(proj.domain_size(0), 2);
  EXPECT_EQ(proj.attribute_name(0), "flag");
  EXPECT_EQ(proj.Record(0), (std::vector<int>{1, 0}));
  Dataset single = ds.Project({0});
  EXPECT_EQ(single.d(), 1);
  EXPECT_EQ(single.n(), 4);
  EXPECT_THROW(ds.Project({}), InvalidArgumentError);
  EXPECT_THROW(ds.Project({2}), InvalidArgumentError);
}

TEST(DatasetTest, SubsampleKeepsValidRecords) {
  Dataset ds = SmallDataset();
  Rng rng(1);
  Dataset sub = ds.Subsample(2, rng);
  EXPECT_EQ(sub.n(), 2);
  EXPECT_EQ(sub.d(), 2);
  EXPECT_THROW(ds.Subsample(0, rng), InvalidArgumentError);
  EXPECT_THROW(ds.Subsample(5, rng), InvalidArgumentError);
}

// The counts a dataset keeps must equal a recount of every column;
// Marginals() must equal EmpiricalFrequency of the column bit for bit; and
// the fast profile's histograms must be exactly those counts.
void ExpectCountsMatchColumns(const Dataset& ds, const std::string& route) {
  SCOPED_TRACE(route);
  ASSERT_EQ(ds.Counts().size(), static_cast<std::size_t>(ds.d()));
  const auto marginals = ds.Marginals();
  for (int j = 0; j < ds.d(); ++j) {
    std::vector<long long> recount(ds.domain_size(j), 0);
    for (int v : ds.Column(j)) ++recount[v];
    EXPECT_EQ(ds.Counts()[j], recount) << "attribute " << j;
    EXPECT_EQ(marginals[j], EmpiricalFrequency(ds.Column(j), ds.domain_size(j)))
        << "attribute " << j;
  }
  EXPECT_EQ(sim::BuildAttributeHistograms(ds), ds.Counts());
}

TEST(DatasetTest, CountsMatchColumnsOnEveryConstructionRoute) {
  ExpectCountsMatchColumns(SmallDataset(), "AddRecord");
  const Dataset adult = AdultLike(7, 0.05);
  ExpectCountsMatchColumns(adult, "AdultLike");
  ExpectCountsMatchColumns(AcsEmploymentLike(7, 0.2), "AcsEmploymentLike");

  const std::string path = ::testing::TempDir() + "/ldpr_dataset_counts.csv";
  SaveCsv(adult, path);
  ExpectCountsMatchColumns(LoadCsv(path), "LoadCsv");
  std::remove(path.c_str());

  ExpectCountsMatchColumns(adult.Project({8, 0, 3}), "Project");
  Rng rng(11);
  ExpectCountsMatchColumns(adult.Subsample(500, rng), "Subsample");

  LongitudinalConfig config;
  config.rounds = 3;
  config.change_probability = 0.3;
  config.seed = 5;
  const std::vector<Dataset> rounds = GenerateLongitudinal(adult, config);
  for (std::size_t t = 0; t < rounds.size(); ++t) {
    ExpectCountsMatchColumns(rounds[t],
                             "GenerateLongitudinal round " + std::to_string(t));
  }
}

TEST(DatasetTest, RejectedRecordLeavesCountsUnchanged) {
  Dataset ds = SmallDataset();
  const auto counts = ds.Counts();
  // The out-of-range value sits in the last attribute, after a valid one.
  EXPECT_THROW(ds.AddRecord({1, 2}), InvalidArgumentError);
  EXPECT_THROW(ds.AddRecord({-1, 0}), InvalidArgumentError);
  EXPECT_EQ(ds.n(), 4);
  EXPECT_EQ(ds.Counts(), counts);
  ExpectCountsMatchColumns(ds, "after rejected records");
}

TEST(DatasetTest, MarginalsRequireData) {
  Dataset ds({2, 2});
  EXPECT_THROW(ds.Marginals(), InvalidArgumentError);
}

}  // namespace
}  // namespace ldpr::data
