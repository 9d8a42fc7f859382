#include "fault/fault_model.hpp"

#include <cstdio>
#include <stdexcept>

#include "fault/ber.hpp"
#include "fault/injector.hpp"

namespace coeff::fault {

namespace {

/// Map a 64-bit draw to [0, 1) with 53 bits of entropy (same convention
/// as sim::Rng::uniform01, but usable on stateless SplitMix64 output).
double to_unit01(std::uint64_t x) { return (x >> 11) * 0x1.0p-53; }

void check_probability(const char* option, double value) {
  if (!(value >= 0.0 && value <= 1.0)) {  // negated: also rejects NaN
    char msg[128];
    std::snprintf(msg, sizeof msg, "fault model: %s = %g out of [0, 1]",
                  option, value);
    throw std::invalid_argument(msg);
  }
}

}  // namespace

const char* to_string(FaultModelKind k) {
  switch (k) {
    case FaultModelKind::kIid:
      return "iid";
    case FaultModelKind::kGilbertElliott:
      return "gilbert-elliott";
    case FaultModelKind::kCommonMode:
      return "common-mode";
  }
  return "?";
}

std::optional<FaultModelKind> parse_fault_model_kind(std::string_view name) {
  if (name == "iid") return FaultModelKind::kIid;
  if (name == "gilbert-elliott" || name == "ge") {
    return FaultModelKind::kGilbertElliott;
  }
  if (name == "common-mode") return FaultModelKind::kCommonMode;
  return std::nullopt;
}

bool FaultModel::corrupted(const flexray::TxRequest& req,
                           flexray::ChannelId channel, sim::Time start) {
  while (!pending_steps_.empty() && start >= pending_steps_.back().at) {
    apply_ber_step(pending_steps_.back().ber);
    pending_steps_.pop_back();
  }
  return draw_verdict(req, channel, start);
}

flexray::CorruptionFn FaultModel::as_corruption_fn() {
  return [this](const flexray::TxRequest& req, flexray::ChannelId channel,
                sim::Time start) { return corrupted(req, channel, start); };
}

void FaultModel::schedule_ber_step(sim::Time at, double ber) {
  check_probability("ber_step", ber);
  // Keep the earliest step at the back (applied first). Insertion sort
  // is fine: drift profiles hold a handful of steps at most.
  BerStep step{at, ber};
  auto it = pending_steps_.begin();
  while (it != pending_steps_.end() && it->at > step.at) ++it;
  pending_steps_.insert(it, step);
}

// --- Gilbert–Elliott ----------------------------------------------------

GilbertElliottModel::GilbertElliottModel(const GilbertElliottParams& params,
                                         std::uint64_t seed)
    : params_(params),
      good_p_(params.ber_good),
      bad_p_(params.ber_bad),
      chains_{Chain{sim::Rng{seed ^ 0x414141ULL}},
              Chain{sim::Rng{seed ^ 0x424242ULL}}} {
  check_probability("gilbert_elliott.p_good_to_bad", params.p_good_to_bad);
  check_probability("gilbert_elliott.p_bad_to_good", params.p_bad_to_good);
  check_probability("gilbert_elliott.ber_good", params.ber_good);
  check_probability("gilbert_elliott.ber_bad", params.ber_bad);
}

bool GilbertElliottModel::draw_verdict(const flexray::TxRequest& req,
                                       flexray::ChannelId channel,
                                       sim::Time /*start*/) {
  Chain& chain = chains_[static_cast<std::size_t>(channel)];
  // One Markov transition per verdict, then the fault draw at the
  // resulting state's BER. Each verdict costs exactly two draws, so the
  // per-channel stream stays aligned whatever path the chain takes.
  const double p_move =
      chain.bad ? params_.p_bad_to_good : params_.p_good_to_bad;
  if (chain.rng.bernoulli(p_move)) chain.bad = !chain.bad;
  BerCache& memo = chain.bad ? bad_p_ : good_p_;
  return chain.rng.bernoulli(memo.p(req.payload_bits));
}

void GilbertElliottModel::apply_ber_step(double ber) {
  params_.ber_good = ber;
  if (params_.ber_bad < ber) params_.ber_bad = ber;
  good_p_.set_ber(params_.ber_good);
  bad_p_.set_ber(params_.ber_bad);
}

std::string GilbertElliottModel::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "gilbert-elliott(p_gb=%g, p_bg=%g, ber_good=%g, ber_bad=%g)",
                params_.p_good_to_bad, params_.p_bad_to_good, params_.ber_good,
                params_.ber_bad);
  return buf;
}

// --- Common mode --------------------------------------------------------

CommonModeModel::CommonModeModel(double ber, double common_fraction,
                                 std::uint64_t seed)
    : ber_(ber),
      common_fraction_(common_fraction),
      seed_(seed),
      rngs_{sim::Rng{seed ^ 0x434343ULL}, sim::Rng{seed ^ 0x444444ULL}} {
  check_probability("ber", ber);
  check_probability("common_fraction", common_fraction);
}

bool CommonModeModel::draw_verdict(const flexray::TxRequest& req,
                                   flexray::ChannelId channel,
                                   sim::Time start) {
  const double p = ber_.p(req.payload_bits);
  // Slot-keyed stateless stream: both channels of the same slot (same
  // start time and frame id) derive identical draws, so a common-mode
  // event corrupts both copies together; the independent branch falls
  // back to the per-channel streams.
  sim::SplitMix64 mix(seed_ ^
                      static_cast<std::uint64_t>(start.ns()) *
                          0x9E3779B97F4A7C15ULL ^
                      (static_cast<std::uint64_t>(req.frame_id.value()) << 17));
  const bool common_event = to_unit01(mix.next()) < common_fraction_;
  const double common_draw = to_unit01(mix.next());
  if (common_event) return common_draw < p;
  return rngs_[static_cast<std::size_t>(channel)].bernoulli(p);
}

void CommonModeModel::apply_ber_step(double ber) { ber_.set_ber(ber); }

std::string CommonModeModel::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "common-mode(ber=%g, common_fraction=%g)",
                ber_.ber(), common_fraction_);
  return buf;
}

// --- Factory ------------------------------------------------------------

std::string describe(const FaultModelConfig& config) {
  switch (config.kind) {
    case FaultModelKind::kIid: {
      char buf[64];
      std::snprintf(buf, sizeof buf, "iid(ber=%g)", config.ber);
      return buf;
    }
    case FaultModelKind::kGilbertElliott:
      return GilbertElliottModel(config.gilbert_elliott, 0).describe();
    case FaultModelKind::kCommonMode:
      return CommonModeModel(config.ber, config.common_fraction, 0).describe();
  }
  return "?";
}

std::unique_ptr<FaultModel> make_fault_model(const FaultModelConfig& config,
                                             std::uint64_t seed) {
  switch (config.kind) {
    case FaultModelKind::kIid:
      return std::make_unique<FaultInjector>(config.ber, seed);
    case FaultModelKind::kGilbertElliott:
      return std::make_unique<GilbertElliottModel>(config.gilbert_elliott,
                                                   seed);
    case FaultModelKind::kCommonMode:
      return std::make_unique<CommonModeModel>(config.ber,
                                               config.common_fraction, seed);
  }
  throw std::invalid_argument("make_fault_model: unknown kind");
}

// --- Analytic failure queries -------------------------------------------

AnalyticFailure::AnalyticFailure(const FaultModelConfig& config)
    : config_(config),
      base_(config.ber),
      good_(config.gilbert_elliott.ber_good),
      bad_(config.gilbert_elliott.ber_bad) {
  check_probability("ber", config.ber);
  if (config.kind == FaultModelKind::kGilbertElliott) {
    const GilbertElliottParams& ge = config.gilbert_elliott;
    check_probability("gilbert_elliott.p_good_to_bad", ge.p_good_to_bad);
    check_probability("gilbert_elliott.p_bad_to_good", ge.p_bad_to_good);
    check_probability("gilbert_elliott.ber_good", ge.ber_good);
    check_probability("gilbert_elliott.ber_bad", ge.ber_bad);
    const double denom = ge.p_good_to_bad + ge.p_bad_to_good;
    // A frozen chain (both transition probabilities 0) never leaves its
    // start state, and every chain starts good.
    pi_bad_ = denom > 0.0 ? ge.p_good_to_bad / denom : 0.0;
  } else if (config.kind == FaultModelKind::kCommonMode) {
    check_probability("common_fraction", config.common_fraction);
  }
}

double AnalyticFailure::attempt(std::int64_t bits) {
  if (config_.kind == FaultModelKind::kGilbertElliott) {
    return (1.0 - pi_bad_) * good_.p(bits) + pi_bad_ * bad_.p(bits);
  }
  // The common-mode marginal is p on either branch: the common stream
  // draws at the same per-frame failure probability as the independent
  // one, it only correlates the two channels.
  return base_.p(bits);
}

double AnalyticFailure::mirrored_pair(std::int64_t bits) {
  if (config_.kind == FaultModelKind::kCommonMode) {
    const double p = base_.p(bits);
    const double f = config_.common_fraction;
    return f * p + (1.0 - f) * p * p;
  }
  // iid: independent channel streams. Gilbert–Elliott: independent
  // per-channel chains, each at its stationary marginal.
  const double p = attempt(bits);
  return p * p;
}

double AnalyticFailure::consecutive_failures(std::int64_t bits, int n) {
  if (n <= 0) return 1.0;
  if (config_.kind != FaultModelKind::kGilbertElliott) {
    return independent_failures(bits, n);
  }
  const GilbertElliottParams& ge = config_.gilbert_elliott;
  const double fg = good_.p(bits);
  const double fb = bad_.p(bits);
  // v_s = P(first k attempts failed, chain in state s after attempt k).
  // Per verdict the chain transitions first, then draws at the new
  // state (draw_verdict order). Adjacent attempts maximize burst
  // correlation, so this is the pessimistic chaining.
  double v_good = 1.0 - pi_bad_;
  double v_bad = pi_bad_;
  for (int k = 0; k < n; ++k) {
    const double to_good =
        v_good * (1.0 - ge.p_good_to_bad) + v_bad * ge.p_bad_to_good;
    const double to_bad =
        v_good * ge.p_good_to_bad + v_bad * (1.0 - ge.p_bad_to_good);
    v_good = to_good * fg;
    v_bad = to_bad * fb;
  }
  return v_good + v_bad;
}

double AnalyticFailure::consecutive_pair_failures(std::int64_t bits, int n) {
  if (n <= 0) return 1.0;
  if (config_.kind == FaultModelKind::kGilbertElliott) {
    // The two channels run independent chains; each must fail all n.
    const double one = consecutive_failures(bits, n);
    return one * one;
  }
  return independent_pair_failures(bits, n);
}

double AnalyticFailure::independent_failures(std::int64_t bits, int n) {
  if (n <= 0) return 1.0;
  double out = 1.0;
  const double p = attempt(bits);
  for (int k = 0; k < n; ++k) out *= p;
  return out;
}

double AnalyticFailure::independent_pair_failures(std::int64_t bits, int n) {
  if (n <= 0) return 1.0;
  double out = 1.0;
  const double p = mirrored_pair(bits);
  for (int k = 0; k < n; ++k) out *= p;
  return out;
}

}  // namespace coeff::fault
