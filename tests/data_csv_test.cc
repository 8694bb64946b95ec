#include "data/csv.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/check.h"
#include "data/synthetic.h"

namespace ldpr::data {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  // ctest runs each case as its own process, in parallel under -j: one
  // file per test and process keeps them off each other's path.
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ldpr_csv_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(CsvTest, LoadsAndLabelEncodes) {
  WriteFile(
      "color,size\n"
      "red,small\n"
      "blue,large\n"
      "red,large\n");
  Dataset ds = LoadCsv(path_);
  EXPECT_EQ(ds.n(), 3);
  EXPECT_EQ(ds.d(), 2);
  EXPECT_EQ(ds.attribute_name(0), "color");
  // Label encoding is order-of-first-appearance: red=0, blue=1.
  EXPECT_EQ(ds.value(0, 0), 0);
  EXPECT_EQ(ds.value(1, 0), 1);
  EXPECT_EQ(ds.value(2, 0), 0);
  EXPECT_EQ(ds.value(0, 1), 0);
  EXPECT_EQ(ds.value(1, 1), 1);
}

TEST_F(CsvTest, NoHeaderMode) {
  WriteFile("a,x\nb,y\n");
  Dataset ds = LoadCsv(path_, /*has_header=*/false);
  EXPECT_EQ(ds.n(), 2);
  EXPECT_EQ(ds.attribute_name(0), "A0");
}

TEST_F(CsvTest, TrimsWhitespaceAndSkipsEmptyLines) {
  WriteFile("h1,h2\n a , b \n\n c , d \n a , b \n");
  Dataset ds = LoadCsv(path_);
  EXPECT_EQ(ds.n(), 3);
  EXPECT_EQ(ds.value(0, 0), 0);
  EXPECT_EQ(ds.value(1, 0), 1);
  // " b " and "b" are the same trimmed cell value.
  EXPECT_EQ(ds.value(0, 1), ds.value(2, 1));
  EXPECT_NE(ds.value(0, 1), ds.value(1, 1));
}

TEST_F(CsvTest, RejectsMissingFile) {
  EXPECT_THROW(LoadCsv("/nonexistent/definitely_missing.csv"),
               InvalidArgumentError);
}

TEST_F(CsvTest, RejectsRaggedRows) {
  WriteFile("h1,h2\na,b\nc\n");
  EXPECT_THROW(LoadCsv(path_), InvalidArgumentError);
}

TEST_F(CsvTest, RejectsConstantColumn) {
  WriteFile("h1,h2\na,x\nb,x\n");
  EXPECT_THROW(LoadCsv(path_), InvalidArgumentError);
}

TEST_F(CsvTest, RejectsHeaderOnly) {
  WriteFile("h1,h2\n");
  EXPECT_THROW(LoadCsv(path_), InvalidArgumentError);
}

TEST_F(CsvTest, SaveLoadRoundTrip) {
  Dataset original = NurseryLike(1, 0.02);
  SaveCsv(original, path_);
  Dataset loaded = LoadCsv(path_);
  ASSERT_EQ(loaded.n(), original.n());
  ASSERT_EQ(loaded.d(), original.d());
  // Label encoding may permute value ids, but record equality structure is
  // preserved: two users agree on an attribute iff they agreed originally.
  for (int j = 0; j < original.d(); ++j) {
    for (int i = 1; i < std::min(200, original.n()); ++i) {
      EXPECT_EQ(original.value(i, j) == original.value(0, j),
                loaded.value(i, j) == loaded.value(0, j))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST_F(CsvTest, CustomDelimiter) {
  WriteFile("h1;h2\na;x\nb;y\n");
  Dataset ds = LoadCsv(path_, true, ';');
  EXPECT_EQ(ds.n(), 2);
  EXPECT_EQ(ds.d(), 2);
}

}  // namespace
}  // namespace ldpr::data
