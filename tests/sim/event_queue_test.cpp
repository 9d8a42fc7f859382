#include "support/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace coeff::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(micros(30), [&] { order.push_back(3); });
  q.push(micros(10), [&] { order.push_back(1); });
  q.push(micros(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimestampsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(micros(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(micros(50), [] {});
  q.push(micros(20), [] {});
  EXPECT_EQ(q.next_time(), micros(20));
}

TEST(EventQueueTest, CancelRemovesPendingEvent) {
  EventQueue q;
  bool fired = false;
  const auto token = q.push(micros(10), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(token));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelUnknownTokenIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  const auto token = q.push(micros(10), [] {});
  EXPECT_TRUE(q.cancel(token));
  EXPECT_FALSE(q.cancel(token));
}

TEST(EventQueueTest, CancelMiddleEventKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.push(micros(10), [&] { order.push_back(1); });
  const auto token = q.push(micros(20), [&] { order.push_back(2); });
  q.push(micros(30), [&] { order.push_back(3); });
  q.cancel(token);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, PopReturnsTimestamp) {
  EventQueue q;
  q.push(micros(42), [] {});
  auto [at, fn] = q.pop();
  EXPECT_EQ(at, micros(42));
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  const auto a = q.push(micros(1), [] {});
  q.push(micros(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, CancelAfterPopIsNoop) {
  // Regression: cancelling a token whose event already fired used to
  // insert a permanent tombstone and corrupt the live count.
  EventQueue q;
  const auto fired = q.push(micros(10), [] {});
  q.push(micros(20), [] {});
  q.pop().second();
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelAfterPopDoesNotSwallowReusedHeapSlot) {
  EventQueue q;
  const auto a = q.push(micros(10), [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(a));
  // A later event must still be delivered even after the bogus cancel.
  bool fired = false;
  q.push(micros(20), [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, InterleavedCancelPopKeepsCountConsistent) {
  EventQueue q;
  std::vector<std::uint64_t> tokens;
  for (int i = 0; i < 100; ++i) tokens.push_back(q.push(micros(i), [] {}));
  std::size_t expect = 100;
  for (int i = 0; i < 30; ++i) {  // pop 30
    q.pop();
    --expect;
    EXPECT_EQ(q.size(), expect);
  }
  for (int i = 0; i < 30; ++i) {  // cancelling the popped 30 is a no-op
    EXPECT_FALSE(q.cancel(tokens[static_cast<std::size_t>(i)]));
    EXPECT_EQ(q.size(), expect);
  }
  for (int i = 30; i < 60; ++i) {  // cancel 30 pending
    EXPECT_TRUE(q.cancel(tokens[static_cast<std::size_t>(i)]));
    --expect;
    EXPECT_EQ(q.size(), expect);
  }
  while (!q.empty()) {
    q.pop();
    --expect;
  }
  EXPECT_EQ(expect, 0u);
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  EventQueue q;
  for (int i = 999; i >= 0; --i) {
    q.push(micros(i), [] {});
  }
  Time last = Time::zero();
  while (!q.empty()) {
    auto [at, fn] = q.pop();
    EXPECT_GE(at, last);
    last = at;
  }
}

}  // namespace
}  // namespace coeff::sim
