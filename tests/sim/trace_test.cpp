#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace coeff::sim {
namespace {

TEST(TraceTest, RecordsEvents) {
  Trace t;
  t.emit(micros(1), TraceKind::kTxSuccess, 1, 2, 3, 4, "hello");
  ASSERT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.records()[0].at, micros(1));
  EXPECT_EQ(t.records()[0].kind, TraceKind::kTxSuccess);
  EXPECT_EQ(t.records()[0].a, 1);
  EXPECT_EQ(t.records()[0].b, 2);
  EXPECT_EQ(t.records()[0].c, 3);
  EXPECT_EQ(t.records()[0].d, 4);
  EXPECT_EQ(t.records()[0].note, "hello");
}

TEST(TraceTest, CountFiltersByKind) {
  Trace t;
  t.emit(micros(1), TraceKind::kTxSuccess);
  t.emit(micros(2), TraceKind::kTxCorrupted);
  t.emit(micros(3), TraceKind::kTxSuccess);
  EXPECT_EQ(t.count(TraceKind::kTxSuccess), 2u);
  EXPECT_EQ(t.count(TraceKind::kTxCorrupted), 1u);
  EXPECT_EQ(t.count(TraceKind::kPlanSwap), 0u);
}

TEST(TraceTest, ClearEmptiesTheLog) {
  Trace t;
  t.emit(micros(1), TraceKind::kInfo);
  t.clear();
  EXPECT_TRUE(t.records().empty());
}

TEST(TraceTest, DumpContainsKindNames) {
  Trace t;
  t.emit(micros(1), TraceKind::kLoadShed, 4, 5);
  const std::string dump = t.dump();
  EXPECT_NE(dump.find("load_shed"), std::string::npos);
  EXPECT_NE(dump.find("a=4"), std::string::npos);
}

TEST(TraceTest, AllKindsHaveNames) {
  for (auto kind :
       {TraceKind::kCycleStart, TraceKind::kTxSuccess, TraceKind::kTxCorrupted,
        TraceKind::kRetransmissionScheduled, TraceKind::kBerDrift,
        TraceKind::kPlanSwap,
        TraceKind::kLoadShed, TraceKind::kNodeCrash, TraceKind::kNodeRestart,
        TraceKind::kChannelDown, TraceKind::kChannelUp, TraceKind::kFailover,
        TraceKind::kVoteResolved, TraceKind::kModeChange,
        TraceKind::kShedByMode, TraceKind::kMatchUp, TraceKind::kInfo}) {
    EXPECT_STRNE(to_string(kind), "unknown");
  }
}

// Exhaustive sweep over every enumerator value: to_string must cover the
// whole enum (no "unknown" fallthrough) with pairwise-distinct names, and
// kTraceKindCount must stay in sync with the enum's tail.
TEST(TraceTest, ToStringCoversEveryEnumerator) {
  std::vector<std::string> names;
  for (int k = 0; k < kTraceKindCount; ++k) {
    const char* name = to_string(static_cast<TraceKind>(k));
    EXPECT_STRNE(name, "unknown") << "enumerator " << k;
    names.emplace_back(name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end())
      << "duplicate TraceKind names";
  EXPECT_EQ(static_cast<int>(TraceKind::kInfo), kTraceKindCount - 1);
}

}  // namespace
}  // namespace coeff::sim
