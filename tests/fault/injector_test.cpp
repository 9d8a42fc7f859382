#include "fault/injector.hpp"

#include <gtest/gtest.h>

namespace coeff::fault {
namespace {

flexray::TxRequest req(std::int64_t bits) {
  flexray::TxRequest r;
  r.payload_bits = bits;
  return r;
}

TEST(InjectorTest, ZeroBerNeverCorrupts) {
  FaultInjector inj(0.0, 1);
  int faults = 0;
  for (int i = 0; i < 1000; ++i) {
    if (inj.corrupted(req(1500), flexray::ChannelId::kA, {})) ++faults;
  }
  EXPECT_EQ(faults, 0);
}

TEST(InjectorTest, BerOneAlwaysCorrupts) {
  FaultInjector inj(1.0, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(inj.corrupted(req(1), flexray::ChannelId::kA, {}));
  }
}

TEST(InjectorTest, FrequencyMatchesFrameFailureProbability) {
  const double ber = 1e-4;
  const std::int64_t bits = 1000;
  const double p = frame_failure_probability(bits, ber);  // ~0.095
  FaultInjector inj(ber, 7);
  const int n = 200'000;
  int faults = 0;
  for (int i = 0; i < n; ++i) {
    if (inj.corrupted(req(bits), flexray::ChannelId::kA, {})) ++faults;
  }
  EXPECT_NEAR(static_cast<double>(faults) / n, p, 0.005);
}

TEST(InjectorTest, DeterministicUnderSeed) {
  FaultInjector a(1e-2, 99), b(1e-2, 99);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(a.corrupted(req(1000), flexray::ChannelId::kA, {}),
              b.corrupted(req(1000), flexray::ChannelId::kA, {}));
  }
}

TEST(InjectorTest, ChannelsAreIndependentStreams) {
  // Drawing on channel A must not change channel B's verdict sequence.
  FaultInjector with_a(1e-2, 5);
  FaultInjector without_a(1e-2, 5);
  std::vector<bool> seq1, seq2;
  for (int i = 0; i < 1000; ++i) {
    with_a.corrupted(req(1000), flexray::ChannelId::kA, {});
    seq1.push_back(with_a.corrupted(req(1000), flexray::ChannelId::kB, {}));
  }
  for (int i = 0; i < 1000; ++i) {
    seq2.push_back(without_a.corrupted(req(1000), flexray::ChannelId::kB, {}));
  }
  EXPECT_EQ(seq1, seq2);
}

TEST(InjectorTest, DualChannelPairsRarelyBothFail) {
  const double ber = 1e-3;
  const std::int64_t bits = 1000;  // p ~ 0.63
  FaultInjector inj(ber, 11);
  int both = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const bool a = inj.corrupted(req(bits), flexray::ChannelId::kA, {});
    const bool b = inj.corrupted(req(bits), flexray::ChannelId::kB, {});
    if (a && b) ++both;
  }
  const double p = frame_failure_probability(bits, ber);
  EXPECT_NEAR(static_cast<double>(both) / n, p * p, 0.01);
}

TEST(InjectorTest, InvalidBerThrows) {
  EXPECT_THROW(FaultInjector(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(FaultInjector(1.1, 1), std::invalid_argument);
}

TEST(InjectorTest, CorruptionFnAdapterForwards) {
  // The adapter draws from the model's own stream: a verdict taken
  // through it advances the stream a direct call continues.
  FaultInjector via_fn(1e-3, 1);
  FaultInjector direct(1e-3, 1);
  auto fn = via_fn.as_corruption_fn();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(fn(req(1000), flexray::ChannelId::kA, {}),
              direct.corrupted(req(1000), flexray::ChannelId::kA, {}))
        << "verdict " << i;
  }
  EXPECT_EQ(via_fn.corrupted(req(1000), flexray::ChannelId::kA, {}),
            direct.corrupted(req(1000), flexray::ChannelId::kA, {}));
}

}  // namespace
}  // namespace coeff::fault
