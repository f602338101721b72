#include "fault/injector.hpp"

#include <bit>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace peak::fault {

namespace {

// Domain-separation salts for the pure-hash draws: one stream per
// question so the answers are independent.
constexpr std::uint64_t kSaltFaulty = 0x6661756c74ULL;   // "fault"
constexpr std::uint64_t kSaltKind = 0x6b696e64ULL;       // "kind"
constexpr std::uint64_t kSaltDeterm = 0x64657465ULL;     // "dete"
constexpr std::uint64_t kSaltFire = 0x66697265ULL;       // "fire"

/// Uniform [0,1) from a 64-bit hash, via one splitmix64 finalization.
double u01(std::uint64_t h) {
  return static_cast<double>(support::splitmix64(h) >> 11) * 0x1.0p-53;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kHang: return "hang";
    case FaultKind::kMiscompile: return "miscompile";
    case FaultKind::kTimerGlitch: return "glitch";
    case FaultKind::kCheckpointCorrupt: return "checkpoint";
    case FaultKind::kHardCrash: return "hard-crash";
  }
  return "?";
}

std::optional<FaultKind> parse_fault_kind(std::string_view name) {
  for (FaultKind k :
       {FaultKind::kNone, FaultKind::kCrash, FaultKind::kHang,
        FaultKind::kMiscompile, FaultKind::kTimerGlitch,
        FaultKind::kCheckpointCorrupt, FaultKind::kHardCrash})
    if (name == to_string(k)) return k;
  return std::nullopt;
}

FaultInjector::FaultInjector(FaultModel model) : model_(model) {
  PEAK_CHECK(model_.fault_prob >= 0.0 && model_.fault_prob <= 1.0,
             "fault probability must be in [0, 1]");
}

std::uint64_t FaultInjector::config_hash(
    const search::FlagConfig& cfg) const {
  std::uint64_t h = model_.seed;
  const auto& words = cfg.bits().words();
  h = support::hash_combine(h, words.size());
  for (std::uint64_t w : words) h = support::hash_combine(h, w);
  return h;
}

FaultDecision FaultInjector::decide(const search::FlagConfig& cfg) const {
  FaultDecision d;
  if (model_.fault_prob <= 0.0) return d;
  if (exempt_.count(cfg.key()) != 0) return d;
  const std::uint64_t h = config_hash(cfg);
  if (u01(support::hash_combine(h, kSaltFaulty)) >= model_.fault_prob)
    return d;

  const double total = model_.crash_weight + model_.hang_weight +
                       model_.miscompile_weight + model_.glitch_weight +
                       model_.checkpoint_weight + model_.hard_crash_weight;
  PEAK_CHECK(total > 0.0, "fault kind weights sum to zero");
  double v = u01(support::hash_combine(h, kSaltKind)) * total;
  if ((v -= model_.crash_weight) < 0.0)
    d.kind = FaultKind::kCrash;
  else if ((v -= model_.hang_weight) < 0.0)
    d.kind = FaultKind::kHang;
  else if ((v -= model_.miscompile_weight) < 0.0)
    d.kind = FaultKind::kMiscompile;
  else if ((v -= model_.glitch_weight) < 0.0)
    d.kind = FaultKind::kTimerGlitch;
  else if ((v -= model_.checkpoint_weight) < 0.0 ||
           model_.hard_crash_weight <= 0.0)
    // Checkpoint stays the catch-all whenever hard crashes are disabled,
    // so rounding at the top edge of the draw can never select an
    // unsurvivable kind that no one opted into.
    d.kind = FaultKind::kCheckpointCorrupt;
  else
    d.kind = FaultKind::kHardCrash;

  d.deterministic =
      d.kind == FaultKind::kHang || d.kind == FaultKind::kMiscompile ||
      u01(support::hash_combine(h, kSaltDeterm)) <
          model_.deterministic_fraction;
  return d;
}

FaultKind FaultInjector::fire(const search::FlagConfig& cfg,
                              std::uint64_t invocation_id,
                              std::size_t attempt) const {
  if (!scripted_.empty()) {
    const auto it = scripted_.find({cfg.key(), invocation_id});
    if (it != scripted_.end())
      return (it->second.sticky || attempt == 0) ? it->second.kind
                                                 : FaultKind::kNone;
  }
  const FaultDecision d = decide(cfg);
  if (d.kind == FaultKind::kNone) return FaultKind::kNone;
  if (d.deterministic) return d.kind;
  const std::uint64_t h = support::hash_combine(
      support::hash_combine(
          support::hash_combine(config_hash(cfg), kSaltFire),
          invocation_id),
      attempt);
  return u01(h) < model_.transient_fire_prob ? d.kind : FaultKind::kNone;
}

void FaultInjector::script(ScriptedFault fault) {
  PEAK_CHECK(fault.kind != FaultKind::kNone,
             "scripted fault must have a kind");
  std::pair<std::string, std::uint64_t> key{fault.config_key,
                                            fault.invocation_id};
  scripted_[std::move(key)] = std::move(fault);
}

void FaultInjector::exempt(const search::FlagConfig& cfg) {
  exempt_.insert(cfg.key());
}

std::uint64_t FaultInjector::digest() const {
  std::uint64_t h = support::stable_hash("peak.fault_injector");
  const auto mix = [&h](std::uint64_t v) { h = support::hash_combine(h, v); };
  for (double d : {model_.fault_prob, model_.crash_weight,
                   model_.hang_weight, model_.miscompile_weight,
                   model_.glitch_weight, model_.checkpoint_weight,
                   model_.hard_crash_weight, model_.deterministic_fraction,
                   model_.transient_fire_prob})
    mix(std::bit_cast<std::uint64_t>(d));
  mix(model_.seed);
  mix(exempt_.size());
  for (const std::string& key : exempt_) mix(support::stable_hash(key));
  mix(scripted_.size());
  for (const auto& [at, fault] : scripted_) {
    mix(support::stable_hash(fault.config_key));
    mix(fault.invocation_id);
    mix(static_cast<std::uint64_t>(fault.kind));
    mix(fault.sticky ? 1 : 0);
  }
  return h;
}

}  // namespace peak::fault
