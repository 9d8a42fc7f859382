#include "fault/fault_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/ber.hpp"
#include "fault/injector.hpp"

namespace coeff::fault {
namespace {

using flexray::ChannelId;

flexray::TxRequest request(std::int64_t bits = 1000,
                           flexray::FrameId frame_id = flexray::FrameId{7}) {
  flexray::TxRequest req;
  req.frame_id = frame_id;
  req.payload_bits = bits;
  return req;
}

/// Drive `n` verdicts on one channel, slots 1 microsecond apart.
std::vector<bool> verdict_stream(FaultModel& model, ChannelId ch, int n,
                                 std::int64_t bits = 1000) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(model.corrupted(request(bits), ch, sim::micros(i + 1)));
  }
  return out;
}

double fault_rate(const std::vector<bool>& verdicts) {
  std::int64_t faults = 0;
  for (const bool v : verdicts) faults += v ? 1 : 0;
  return static_cast<double>(faults) /
         static_cast<double>(verdicts.empty() ? 1 : verdicts.size());
}

TEST(FaultModelKindTest, ParseAndToStringRoundTrip) {
  for (const auto kind :
       {FaultModelKind::kIid, FaultModelKind::kGilbertElliott,
        FaultModelKind::kCommonMode}) {
    const auto parsed = parse_fault_model_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(parse_fault_model_kind("ge"), FaultModelKind::kGilbertElliott);
  EXPECT_FALSE(parse_fault_model_kind("markov").has_value());
  EXPECT_FALSE(parse_fault_model_kind("iid-counter").has_value());
  EXPECT_FALSE(parse_fault_model_kind("").has_value());
}

TEST(FaultModelTest, SameSeedGivesByteIdenticalVerdicts) {
  // Acceptance criterion: every model is deterministic per seed. The
  // verdict streams of two same-seeded instances must match exactly.
  FaultModelConfig configs[3];
  configs[0].kind = FaultModelKind::kIid;
  configs[0].ber = 1e-4;
  configs[1].kind = FaultModelKind::kGilbertElliott;
  configs[1].gilbert_elliott.p_good_to_bad = 0.05;
  configs[1].gilbert_elliott.ber_bad = 1e-3;
  configs[2].kind = FaultModelKind::kCommonMode;
  configs[2].ber = 1e-4;
  configs[2].common_fraction = 0.5;
  for (const auto& config : configs) {
    const auto a = make_fault_model(config, 1234);
    const auto b = make_fault_model(config, 1234);
    EXPECT_EQ(verdict_stream(*a, ChannelId::kA, 4000),
              verdict_stream(*b, ChannelId::kA, 4000))
        << describe(config);
  }
}

TEST(FaultModelTest, DifferentSeedsDecorrelate) {
  FaultModelConfig config;
  config.ber = 1e-3;  // p ~ 0.63 per 1000-bit frame: streams must differ
  const auto a = make_fault_model(config, 1);
  const auto b = make_fault_model(config, 2);
  EXPECT_NE(verdict_stream(*a, ChannelId::kA, 2000),
            verdict_stream(*b, ChannelId::kA, 2000));
}

TEST(FaultModelTest, ChannelsDrawFromIndependentStreams) {
  // Interleaving one channel's verdicts must not perturb the other's
  // stream (each channel owns its RNG). Compare each channel's stream
  // with and without the other's traffic in between.
  FaultInjector interleaved(1e-3, 99);
  FaultInjector a_only(1e-3, 99);
  FaultInjector b_only(1e-3, 99);
  std::vector<bool> a_interleaved, b_interleaved, a_alone, b_alone;
  for (int i = 0; i < 3000; ++i) {
    a_interleaved.push_back(
        interleaved.corrupted(request(), ChannelId::kA, sim::micros(i + 1)));
    b_interleaved.push_back(
        interleaved.corrupted(request(), ChannelId::kB, sim::micros(i + 1)));
    a_alone.push_back(
        a_only.corrupted(request(), ChannelId::kA, sim::micros(i + 1)));
    b_alone.push_back(
        b_only.corrupted(request(), ChannelId::kB, sim::micros(i + 1)));
  }
  EXPECT_EQ(a_interleaved, a_alone);
  EXPECT_EQ(b_interleaved, b_alone);
}

TEST(FaultModelTest, GilbertElliottWithoutBurstsMatchesIidRate) {
  // Satellite criterion: with burst entry disabled the chain never
  // leaves the good state, so the corruption rate must agree with the
  // iid model at ber_good within binomial confidence bounds. (The two
  // models consume RNG draws differently, so the comparison is
  // statistical, not stream-exact.)
  const double ber = 1e-4;
  const std::int64_t bits = 1000;
  const int n = 40000;
  GilbertElliottParams params;
  params.p_good_to_bad = 0.0;
  params.ber_good = ber;
  params.ber_bad = 0.5;  // poison: any bad-state visit would show up
  GilbertElliottModel ge(params, 7);
  FaultInjector iid(ber, 7);
  const double rate_ge = fault_rate(verdict_stream(ge, ChannelId::kA, n, bits));
  const double rate_iid =
      fault_rate(verdict_stream(iid, ChannelId::kA, n, bits));
  EXPECT_FALSE(ge.in_bad_state(ChannelId::kA));
  const double p = frame_failure_probability(bits, ber);  // ~0.095
  // Each empirical rate sits within ~5 sigma of p; their difference
  // within ~7 sigma of 0 (sigma_diff = sqrt(2 p (1-p) / n)).
  const double sigma = std::sqrt(p * (1.0 - p) / n);
  EXPECT_NEAR(rate_ge, p, 5.0 * sigma);
  EXPECT_NEAR(rate_iid, p, 5.0 * sigma);
  EXPECT_NEAR(rate_ge, rate_iid, 7.0 * std::sqrt(2.0) * sigma);
}

TEST(FaultModelTest, GilbertElliottBadStateUsesBadBer) {
  // Force the chain into the bad state on the first verdict and keep it
  // there: the rate must track ber_bad, not ber_good.
  GilbertElliottParams params;
  params.p_good_to_bad = 1.0;
  params.p_bad_to_good = 0.0;
  params.ber_good = 0.0;
  params.ber_bad = 1e-3;
  GilbertElliottModel ge(params, 11);
  const int n = 20000;
  const double rate = fault_rate(verdict_stream(ge, ChannelId::kA, n));
  EXPECT_TRUE(ge.in_bad_state(ChannelId::kA));
  const double p = frame_failure_probability(1000, params.ber_bad);  // ~0.63
  const double sigma = std::sqrt(p * (1.0 - p) / n);
  EXPECT_NEAR(rate, p, 5.0 * sigma);
}

TEST(FaultModelTest, CommonModeFractionOneCouplesChannels) {
  // With common_fraction = 1 every fault event is decided by the shared
  // slot-keyed stream: both channels of a slot must agree, always.
  CommonModeModel model(7e-4, 1.0, 21);  // p ~ 0.5 per 1000-bit frame
  int faults = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto req = request(1000, flexray::FrameId{static_cast<std::uint16_t>(i % 50 + 1)});
    const auto at = sim::micros(i + 1);
    const bool a = model.corrupted(req, ChannelId::kA, at);
    const bool b = model.corrupted(req, ChannelId::kB, at);
    EXPECT_EQ(a, b) << "slot " << i;
    faults += a ? 1 : 0;
  }
  EXPECT_GT(faults, 0);  // the coupling is not vacuous
  EXPECT_LT(faults, 2000);
}

TEST(FaultModelTest, CommonModeFractionZeroIsIndependent) {
  // With common_fraction = 0 the channels fall back to independent
  // per-channel streams: both-fail events occur at ~p^2, not ~p.
  const double ber = 7e-4;
  const double p = frame_failure_probability(1000, ber);  // ~0.5
  CommonModeModel model(ber, 0.0, 21);
  const int n = 20000;
  int both = 0, disagreements = 0;
  for (int i = 0; i < n; ++i) {
    const auto req = request(1000, flexray::FrameId{static_cast<std::uint16_t>(i % 50 + 1)});
    const auto at = sim::micros(i + 1);
    const bool a = model.corrupted(req, ChannelId::kA, at);
    const bool b = model.corrupted(req, ChannelId::kB, at);
    both += (a && b) ? 1 : 0;
    disagreements += (a != b) ? 1 : 0;
  }
  EXPECT_GT(disagreements, 0);
  const double both_rate = static_cast<double>(both) / n;
  const double expected = p * p;
  const double sigma = std::sqrt(expected * (1.0 - expected) / n);
  EXPECT_NEAR(both_rate, expected, 5.0 * sigma);
}

TEST(FaultModelTest, BerStepAppliesAtScheduledTime) {
  FaultInjector injector(0.0, 5);
  injector.schedule_ber_step(sim::millis(1), 1.0);
  int faults = 0;
  // Before the step: ber = 0, nothing corrupts.
  for (int i = 0; i < 100; ++i) {
    const bool fault =
        injector.corrupted(request(), ChannelId::kA, sim::micros(i + 1));
    EXPECT_FALSE(fault);
    if (fault) ++faults;
  }
  // At/after the step: ber = 1, every frame corrupts.
  for (int i = 0; i < 100; ++i) {
    const bool fault = injector.corrupted(request(), ChannelId::kA,
                                          sim::millis(1) + sim::micros(i));
    EXPECT_TRUE(fault);
    if (fault) ++faults;
  }
  EXPECT_EQ(faults, 100);
}

TEST(FaultModelTest, GilbertElliottBerStepRaisesBothStates) {
  GilbertElliottParams params;
  params.ber_good = 1e-7;
  params.ber_bad = 1e-4;
  GilbertElliottModel ge(params, 3);
  ge.schedule_ber_step(sim::millis(1), 1e-3);
  (void)ge.corrupted(request(), ChannelId::kA, sim::millis(2));
  EXPECT_DOUBLE_EQ(ge.params().ber_good, 1e-3);
  EXPECT_DOUBLE_EQ(ge.params().ber_bad, 1e-3);  // lifted to the new floor
}

TEST(FaultModelTest, ValidationNamesTheBadOption) {
  EXPECT_THROW(FaultInjector(1.5, 1), std::invalid_argument);
  try {
    CommonModeModel model(1e-7, -0.5, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("common_fraction"),
              std::string::npos)
        << e.what();
  }
  GilbertElliottParams params;
  params.p_bad_to_good = 2.0;
  try {
    GilbertElliottModel model(params, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("p_bad_to_good"), std::string::npos)
        << e.what();
  }
  FaultInjector ok(1e-7, 1);
  EXPECT_THROW(ok.schedule_ber_step(sim::millis(1), 2.0),
               std::invalid_argument);
}

TEST(FaultModelTest, DescribeMentionsTheModel) {
  FaultModelConfig config;
  config.kind = FaultModelKind::kGilbertElliott;
  EXPECT_NE(describe(config).find("gilbert-elliott"), std::string::npos);
  config.kind = FaultModelKind::kCommonMode;
  EXPECT_NE(describe(config).find("common-mode"), std::string::npos);
  config.kind = FaultModelKind::kIid;
  EXPECT_NE(describe(config).find("iid"), std::string::npos);
}

}  // namespace
}  // namespace coeff::fault
