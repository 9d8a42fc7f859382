#include "core/instance.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace coeff::core {
namespace {

TEST(InstanceStoreTest, KeyPacksMessageAndIndex) {
  const auto k1 = InstanceStore::make_key(7, 3);
  const auto k2 = InstanceStore::make_key(7, 4);
  const auto k3 = InstanceStore::make_key(8, 3);
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_NE(k2, k3);
  // Key 0 is reserved as "no instance", even for position 0, index 0.
  EXPECT_NE(InstanceStore::make_key(0, 0), 0u);
  EXPECT_EQ(InstanceStore::position_of(k3), 8u);
  // Ascending keys are ascending (position, index).
  EXPECT_LT(k1, k2);
  EXPECT_LT(k2, k3);
}

TEST(InstanceStoreTest, CreateFindErase) {
  InstanceStore store(6);
  Instance& inst = store.create(5, 42, 2);
  EXPECT_EQ(inst.message_id, 42);
  EXPECT_EQ(inst.index, 2);
  EXPECT_EQ(inst.key, InstanceStore::make_key(5, 2));
  EXPECT_EQ(store.size(), 1u);
  ASSERT_NE(store.find(inst.key), nullptr);
  EXPECT_EQ(store.find(inst.key)->message_id, 42);
  store.erase_if([](const Instance&) { return true; });
  EXPECT_EQ(store.find(InstanceStore::make_key(5, 2)), nullptr);
  EXPECT_EQ(store.size(), 0u);
}

TEST(InstanceStoreTest, FindUnknownIsNull) {
  InstanceStore store(2);
  EXPECT_EQ(store.find(0), nullptr);
  EXPECT_EQ(store.find(12345), nullptr);
  EXPECT_EQ(store.find(InstanceStore::make_key(2, 0)), nullptr);  // no lane
  store.create(1, 9, 4);
  EXPECT_EQ(store.find(InstanceStore::make_key(1, 3)), nullptr);  // before
  EXPECT_EQ(store.find(InstanceStore::make_key(1, 5)), nullptr);  // after
  EXPECT_EQ(store.find(InstanceStore::make_key(0, 4)), nullptr);
}

TEST(InstanceStoreTest, EraseIfVisitsKeysInOrderWhileErasing) {
  InstanceStore store(3);
  for (int i = 0; i < 10; ++i) store.create(2, 7, i);
  for (int i = 0; i < 4; ++i) store.create(0, 9, i);
  // Every instance is visited once, in ascending key order, and the
  // erased ones are gone afterwards; the rest still resolve.
  std::vector<std::uint64_t> visited;
  store.erase_if([&](Instance& inst) {
    visited.push_back(inst.key);
    return inst.index % 2 == 0;
  });
  ASSERT_EQ(visited.size(), 14u);
  for (std::size_t i = 1; i < visited.size(); ++i) {
    EXPECT_LT(visited[i - 1], visited[i]);
  }
  EXPECT_EQ(store.size(), 7u);
  EXPECT_EQ(store.find(InstanceStore::make_key(2, 4)), nullptr);
  ASSERT_NE(store.find(InstanceStore::make_key(2, 5)), nullptr);
  EXPECT_EQ(store.find(InstanceStore::make_key(2, 5))->index, 5);
}

TEST(InstanceStoreTest, DefaultLifecycleFlags) {
  InstanceStore store(2);
  const Instance& inst = store.create(1, 1, 0);
  EXPECT_FALSE(inst.delivered);
  EXPECT_FALSE(inst.miss_recorded);
  EXPECT_EQ(inst.copies_sent, 0);
  EXPECT_EQ(inst.copies_required, 1);
}

TEST(InstanceStoreTest, ManyMessagesNoKeyCollisions) {
  InstanceStore store(200);
  for (std::size_t m = 0; m < 200; ++m) {
    for (int i = 0; i < 20; ++i) store.create(m, static_cast<int>(m), i);
  }
  EXPECT_EQ(store.size(), 200u * 20u);
  for (std::size_t m = 0; m < 200; ++m) {
    for (int i = 0; i < 20; ++i) {
      const Instance* inst = store.find(InstanceStore::make_key(m, i));
      ASSERT_NE(inst, nullptr);
      EXPECT_EQ(inst->message_id, static_cast<int>(m));
      EXPECT_EQ(inst->index, i);
    }
  }
}

TEST(InstanceStoreTest, LaneReusesCellsAcrossReleases) {
  // A long-running message settles its old instances while new ones
  // arrive; skipped indices stay free and the lane keeps working past
  // many ring wrap-arounds.
  InstanceStore store(1);
  for (int i = 0; i < 1000; i += 2) {
    store.create(0, 3, i);
    store.erase_if([i](const Instance& inst) { return inst.index <= i - 6; });
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_NE(store.find(InstanceStore::make_key(0, 998)), nullptr);
  EXPECT_NE(store.find(InstanceStore::make_key(0, 994)), nullptr);
  EXPECT_EQ(store.find(InstanceStore::make_key(0, 997)), nullptr);
  EXPECT_EQ(store.find(InstanceStore::make_key(0, 992)), nullptr);
  EXPECT_THROW(store.create(0, 3, 998), std::logic_error);
}

}  // namespace
}  // namespace coeff::core
