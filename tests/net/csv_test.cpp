#include "net/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "net/workloads.hpp"

namespace coeff::net {
namespace {

TEST(CsvTest, RoundTripBbw) {
  const auto original = brake_by_wire();
  const auto parsed = from_csv(to_csv(original));
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i].id, original[i].id);
    EXPECT_EQ(parsed[i].name, original[i].name);
    EXPECT_EQ(parsed[i].node, original[i].node);
    EXPECT_EQ(parsed[i].kind, original[i].kind);
    EXPECT_EQ(parsed[i].period, original[i].period);
    EXPECT_EQ(parsed[i].offset, original[i].offset);
    EXPECT_EQ(parsed[i].deadline, original[i].deadline);
    EXPECT_EQ(parsed[i].size_bits, original[i].size_bits);
    EXPECT_EQ(parsed[i].frame_id, original[i].frame_id);
  }
}

TEST(CsvTest, RoundTripDynamicSet) {
  sim::Rng rng(4);
  SaeAperiodicOptions opt;
  const auto original = sae_aperiodic(opt, rng);
  const auto parsed = from_csv(to_csv(original));
  ASSERT_EQ(parsed.size(), original.size());
  EXPECT_EQ(parsed[0].kind, MessageKind::kDynamic);
  EXPECT_EQ(parsed[0].frame_id, original[0].frame_id);
}

TEST(CsvTest, CommentsAndBlankLinesSkipped) {
  const std::string text =
      "# a comment\n"
      "\n"
      "id,name,node,kind,period_us,offset_us,deadline_us,size_bits,frame_id\n"
      "1, brake , 0, static, 8000, 280, 8000, 1292, 0\n"
      "# another comment\n"
      "2,steer,1,dynamic,50000,0,50000,512,90\n";
  const auto set = from_csv(text);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0].name, "brake");
  EXPECT_EQ(set[0].period, sim::millis(8));
  EXPECT_EQ(set[1].kind, MessageKind::kDynamic);
  EXPECT_EQ(set[1].frame_id, 90);
}

TEST(CsvTest, WrongFieldCountRejectedWithLineNumber) {
  try {
    (void)from_csv("1,short,line\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(CsvTest, BadNumberRejected) {
  EXPECT_THROW((void)from_csv("1,x,0,static,abc,0,100,10,0\n"),
               std::invalid_argument);
  EXPECT_THROW((void)from_csv("1,x,0,static,100x,0,100,10,0\n"),
               std::invalid_argument);
  // One strict grammar for every number: no '+'.
  try {
    (void)from_csv("+1,x,0,static,100,0,100,10,0\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "csv line 1: bad id '+1'");
  }
}

TEST(CsvTest, BadKindRejected) {
  EXPECT_THROW((void)from_csv("1,x,0,sporadic,100,0,100,10,0\n"),
               std::invalid_argument);
}

TEST(CsvTest, ParsedSetIsValidated) {
  // deadline > period violates the constrained-deadline model.
  EXPECT_THROW((void)from_csv("1,x,0,static,100,0,200,10,0\n"),
               std::invalid_argument);
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = "/tmp/coeff_csv_test.csv";
  save_csv(adaptive_cruise(), path);
  const auto loaded = load_csv(path);
  EXPECT_EQ(loaded.size(), 20u);
  EXPECT_EQ(loaded[0].period, sim::millis(16));
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileThrows) {
  EXPECT_THROW((void)load_csv("/nonexistent/really/not.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace coeff::net
