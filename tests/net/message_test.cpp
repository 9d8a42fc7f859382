#include "net/message.hpp"

#include <gtest/gtest.h>

namespace coeff::net {
namespace {

Message make(int id, int period_ms, int deadline_ms, int bits,
             MessageKind kind = MessageKind::kStatic) {
  Message m;
  m.id = id;
  m.name = "m" + std::to_string(id);
  m.node = id % 10;
  m.kind = kind;
  m.period = sim::millis(period_ms);
  m.deadline = sim::millis(deadline_ms);
  m.size_bits = bits;
  return m;
}

TEST(MessageSetTest, ValidSetPasses) {
  MessageSet set({make(1, 10, 5, 100), make(2, 20, 20, 200)});
  EXPECT_NO_THROW(set.validate());
}

TEST(MessageSetTest, DuplicateIdsRejected) {
  MessageSet set({make(1, 10, 5, 100), make(1, 20, 20, 200)});
  EXPECT_THROW(set.validate(), std::invalid_argument);
}

TEST(MessageSetTest, NonPositiveFieldsRejected) {
  auto bad_period = make(1, 0, 5, 100);
  EXPECT_THROW(MessageSet({bad_period}).validate(), std::invalid_argument);
  auto bad_size = make(1, 10, 5, 0);
  EXPECT_THROW(MessageSet({bad_size}).validate(), std::invalid_argument);
}

TEST(MessageSetTest, DeadlineBeyondPeriodRejected) {
  auto m = make(1, 10, 11, 100);
  EXPECT_THROW(MessageSet({m}).validate(), std::invalid_argument);
}

TEST(MessageSetTest, NegativeOffsetRejected) {
  auto m = make(1, 10, 5, 100);
  m.offset = sim::millis(-1);
  EXPECT_THROW(MessageSet({m}).validate(), std::invalid_argument);
}

TEST(MessageSetTest, OffsetBeyondPeriodRejected) {
  auto m = make(1, 10, 5, 100);
  m.offset = sim::millis(11);
  EXPECT_THROW(MessageSet({m}).validate(), std::invalid_argument);
}

TEST(MessageSetTest, DuplicateStaticFrameIdsRejected) {
  auto a = make(1, 10, 5, 100);
  auto b = make(2, 10, 5, 100);
  a.frame_id = 3;
  b.frame_id = 3;
  EXPECT_THROW(MessageSet({a, b}).validate(), std::invalid_argument);
}

TEST(MessageSetTest, ValidateNamesTheFirstBrokenRule) {
  const auto message_of = [](const MessageSet& set) -> std::string {
    try {
      set.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "valid";
  };
  const auto with = [](auto edit) {
    Message m = make(7, 10, 5, 100);
    edit(m);
    return MessageSet({m});
  };
  EXPECT_EQ(message_of(MessageSet({make(7, 10, 5, 100), make(7, 20, 5, 100)})),
            "MessageSet: duplicate message id 7");
  EXPECT_EQ(message_of(with([](Message& m) { m.id = -5; })),
            "MessageSet: message -5: negative id");
  EXPECT_EQ(message_of(with([](Message& m) { m.period = sim::Time::zero(); })),
            "MessageSet: message 7: period must be positive");
  EXPECT_EQ(message_of(with([](Message& m) { m.size_bits = 0; })),
            "MessageSet: message 7: size must be positive");
  EXPECT_EQ(message_of(with([](Message& m) { m.deadline = sim::millis(-1); })),
            "MessageSet: message 7: deadline must be positive");
  EXPECT_EQ(message_of(with([](Message& m) { m.deadline = sim::millis(11); })),
            "MessageSet: message 7: deadline exceeds period "
            "(constrained-deadline model)");
  EXPECT_EQ(message_of(with([](Message& m) { m.offset = sim::millis(-1); })),
            "MessageSet: message 7: negative offset");
  EXPECT_EQ(message_of(with([](Message& m) { m.offset = sim::millis(11); })),
            "MessageSet: message 7: offset exceeds period");
  EXPECT_EQ(message_of(with([](Message& m) { m.node = -1; })),
            "MessageSet: message 7: negative node");
  // FlexRay frame ids are 11 bits: [0, 2047] is the whole space.
  EXPECT_EQ(message_of(with([](Message& m) { m.frame_id = 2047; })), "valid");
  for (const int id : {-1, 2048, 65617, 2147483647}) {
    EXPECT_EQ(message_of(with([id](Message& m) { m.frame_id = id; })),
              "MessageSet: message 7: frame id outside [0, 2047]")
        << id;
  }
  Message a = make(7, 10, 5, 100);
  Message b = make(8, 10, 5, 100);
  a.frame_id = 3;
  b.frame_id = 3;
  EXPECT_EQ(message_of(MessageSet({a, b})),
            "MessageSet: message 8: static frame id 3 already taken");
  // Checks run in order: a message breaking several rules names the
  // first of them.
  EXPECT_EQ(message_of(with([](Message& m) {
              m.size_bits = 0;
              m.node = -1;
            })),
            "MessageSet: message 7: size must be positive");
  // The id rule is the first per-message rule.
  EXPECT_EQ(message_of(with([](Message& m) {
              m.id = -5;
              m.period = sim::Time::zero();
            })),
            "MessageSet: message -5: negative id");
}

TEST(MessageSetTest, DynamicFrameIdsMayRepeatAcrossKinds) {
  auto a = make(1, 10, 5, 100, MessageKind::kDynamic);
  auto b = make(2, 10, 5, 100, MessageKind::kDynamic);
  a.frame_id = 90;
  b.frame_id = 90;  // FlexRay allows shared dynamic frame ids
  EXPECT_NO_THROW(MessageSet({a, b}).validate());
}

TEST(MessageSetTest, OfKindFilters) {
  MessageSet set({make(1, 10, 5, 100), make(2, 10, 5, 100,
                                            MessageKind::kDynamic)});
  EXPECT_EQ(set.of_kind(MessageKind::kStatic).size(), 1u);
  EXPECT_EQ(set.of_kind(MessageKind::kDynamic).size(), 1u);
  EXPECT_EQ(set.of_kind(MessageKind::kStatic)[0].id, 1);
}

TEST(MessageSetTest, PrefixTakesFirstN) {
  MessageSet set({make(1, 10, 5, 1), make(2, 10, 5, 1), make(3, 10, 5, 1)});
  EXPECT_EQ(set.prefix(2).size(), 2u);
  EXPECT_EQ(set.prefix(10).size(), 3u);
  EXPECT_EQ(set.prefix(0).size(), 0u);
}

TEST(MessageSetTest, MergePreservesAll) {
  MessageSet a({make(1, 10, 5, 1)});
  MessageSet b({make(2, 10, 5, 1)});
  const auto merged = a.merged_with(b);
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_NO_THROW(merged.validate());
}

TEST(MessageSetTest, Hyperperiod) {
  MessageSet set({make(1, 8, 8, 1), make(2, 12, 12, 1)});
  EXPECT_EQ(set.hyperperiod(), sim::millis(24));
}

TEST(MessageSetTest, HyperperiodOverflowThrows) {
  auto a = make(1, 9973, 9973, 1);   // large coprime periods
  auto b = make(2, 9967, 9967, 1);
  auto c = make(3, 9949, 9949, 1);
  EXPECT_THROW((void)MessageSet({a, b, c}).hyperperiod(), std::domain_error);
}

TEST(MessageSetTest, FindById) {
  MessageSet set({make(5, 10, 5, 1)});
  ASSERT_NE(set.find(5), nullptr);
  EXPECT_EQ(set.find(5)->id, 5);
  EXPECT_EQ(set.find(6), nullptr);
}

TEST(MessageSetTest, KindNames) {
  EXPECT_STREQ(to_string(MessageKind::kStatic), "static");
  EXPECT_STREQ(to_string(MessageKind::kDynamic), "dynamic");
}

}  // namespace
}  // namespace coeff::net
