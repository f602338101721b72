#include "sim/exec_backend.hpp"

#include <bit>
#include <cstdlib>
#include <limits>

#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace peak::sim {

namespace {

/// Statically cached metric references (registry lookups are mutex-guarded).
struct BaseCacheMetrics {
  obs::Counter& hit = obs::counter("sim.base_cache.hit");
  obs::Counter& miss = obs::counter("sim.base_cache.miss");
  obs::Counter& uncacheable = obs::counter("sim.base_cache.uncacheable");
};

BaseCacheMetrics& base_cache_metrics() {
  static BaseCacheMetrics metrics;
  return metrics;
}

struct FaultMetrics {
  obs::Counter& injected = obs::counter("fault.injected");
  obs::Counter& deadline = obs::counter("fault.deadline_exceeded");
};

FaultMetrics& fault_metrics() {
  static FaultMetrics metrics;
  return metrics;
}

/// FNV-1a over the bit patterns of a post-run memory image — the
/// Modified_Input digest that validation compares against the reference.
std::uint64_t memory_digest(const ir::Memory& memory) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(memory.scalars.size());
  for (double v : memory.scalars) mix(std::bit_cast<std::uint64_t>(v));
  mix(memory.arrays.size());
  for (const auto& arr : memory.arrays) {
    mix(arr.size());
    for (double v : arr) mix(std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

/// Nonzero, config-dependent corruption applied to a miscompiled
/// version's output digest.
std::uint64_t digest_corruption(const search::FlagConfig& cfg) {
  std::uint64_t h = 0x6d69736f757470ULL;  // "misoutp"
  for (std::uint64_t w : cfg.bits().words()) h = support::hash_combine(h, w);
  return h | 1;
}

}  // namespace

Costs& Costs::operator+=(const Costs& d) {
  accumulated += d.accumulated;
  timed += d.timed;
  precondition += d.precondition;
  checkpoint += d.checkpoint;
  faulted += d.faulted;
  retry += d.retry;
  saves += d.saves;
  restores += d.restores;
  checkpoint_bytes += d.checkpoint_bytes;
  return *this;
}

SimExecutionBackend::SimExecutionBackend(const ir::Function& fn,
                                         TsTraits traits,
                                         const MachineModel& machine,
                                         const FlagEffectModel& effects,
                                         std::uint64_t seed)
    : fn_(fn),
      traits_(std::move(traits)),
      machine_(machine),
      effects_(effects),
      interp_(fn),
      cost_model_(machine_),
      program_(ir::BytecodeProgram::compile(fn, cost_model_)),
      vm_(program_),
      noise_(machine.noise, support::Rng(seed)) {
  noise_.scale_sigma(traits_.noise_scale);
}

const SimExecutionBackend::BaseRun& SimExecutionBackend::base_run(
    const Invocation& inv) {
  BaseCacheMetrics& metrics = base_cache_metrics();
  if (inv.context_determines_time) {
    auto it = base_cache_.find(inv.context);
    if (it != base_cache_.end()) {
      metrics.hit.inc();
      return it->second;
    }
  } else if (inv.id != 0) {
    auto it = base_cache_by_id_.find(inv.id);
    if (it != base_cache_by_id_.end()) {
      metrics.hit.inc();
      return it->second;
    }
  }
  pool_memory_.reset(fn_);
  PEAK_CHECK(static_cast<bool>(inv.bind), "invocation has no binder");
  inv.bind(pool_memory_);
  ir::RunResult run = engine_ == ExecEngine::kBytecode
                          ? vm_.run(pool_memory_)
                          : interp_.run(pool_memory_, cost_model_);

  BaseRun base;
  base.cycles = run.cycles;
  base.counters = std::make_shared<const std::vector<std::uint64_t>>(
      std::move(run.counters));
  // Both engines leave bit-identical memory images (the differential
  // contract in tests/test_ir_bytecode.cpp), so the digest is
  // engine-independent.
  base.digest = memory_digest(pool_memory_);
  if (inv.context_determines_time) {
    metrics.miss.inc();
    auto [it, inserted] = base_cache_.emplace(inv.context, std::move(base));
    (void)inserted;
    return it->second;
  }
  if (inv.id != 0) {
    metrics.miss.inc();
    auto [it, inserted] =
        base_cache_by_id_.emplace(inv.id, std::move(base));
    (void)inserted;
    return it->second;
  }
  metrics.uncacheable.inc();
  scratch_base_ = std::move(base);
  return scratch_base_;
}

std::size_t SimExecutionBackend::MultKeyHash::operator()(
    const MultKey& k) const {
  // FNV-1a over the flag words and the context value bit patterns.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(k.flag_words.size());
  for (std::uint64_t w : k.flag_words) mix(w);
  mix(k.context.size());
  for (double v : k.context) mix(std::bit_cast<std::uint64_t>(v));
  return static_cast<std::size_t>(h);
}

double SimExecutionBackend::multiplier(const search::FlagConfig& cfg,
                                       const Invocation& inv) {
  const bool ctx_sensitive = effects_.context_sensitive(traits_);
  MultKey key;
  key.flag_words = cfg.bits().words();
  if (ctx_sensitive) key.context = inv.context;
  auto it = mult_cache_.find(key);
  if (it != mult_cache_.end()) return it->second;
  const double m =
      ctx_sensitive
          ? effects_.time_multiplier(traits_, machine_, cfg, inv.context)
          : effects_.time_multiplier(traits_, machine_, cfg);
  mult_cache_.emplace(std::move(key), m);
  return m;
}

double SimExecutionBackend::checkpoint_cost(std::size_t bytes) const {
  const double doubles = static_cast<double>(bytes) / sizeof(double);
  return doubles * (machine_.load_cost + machine_.store_cost);
}

double SimExecutionBackend::timed_run(const BaseRun& base, double mult,
                                      double irregularity,
                                      bool precondition) {
  const double time =
      base.cycles * mult * irregularity * warmth_.execute() *
          noise_.sample() +
      noise_.sample_additive();
  charge(precondition ? costs_.precondition : costs_.timed, time);
  return time;
}

double SimExecutionBackend::charge_save(std::size_t bytes) {
  const double cost = checkpoint_cost(bytes);
  charge(costs_.checkpoint, cost);
  costs_.checkpoint_bytes += bytes;
  ++costs_.saves;
  return cost;
}

double SimExecutionBackend::charge_restore(std::size_t bytes) {
  const double cost = checkpoint_cost(bytes);
  charge(costs_.checkpoint, cost);
  costs_.checkpoint_bytes += bytes;
  ++costs_.restores;
  warmth_.on_restore();
  return cost;
}

fault::FaultKind SimExecutionBackend::fault_kind(
    const search::FlagConfig& cfg, const Invocation& inv) const {
  if (injector_ == nullptr) return fault::FaultKind::kNone;
  const fault::FaultKind kind = injector_->fire(cfg, inv.id, fault_attempt_);
  if (kind == fault::FaultKind::kHardCrash) {
    // A hard crash is process death, not an exception. The verdict is
    // re-queried with the *process*-level attempt: a respawned worker
    // retries under attempt > 0, so a transient hard crash clears on the
    // second process, while a deterministic (or sticky scripted) one
    // aborts every attempt until the supervisor gives up and the config
    // lands in quarantine. Nothing is charged and no randomness is
    // consumed before the abort, so a survived retry is bit-identical to
    // a run that never crashed. Only --isolate-workers runs survive this.
    if (injector_->fire(cfg, inv.id, process_attempt_) ==
        fault::FaultKind::kHardCrash)
      std::abort();
    return fault::FaultKind::kNone;
  }
  return kind;
}

void SimExecutionBackend::raise_fault(fault::FaultKind kind,
                                      const search::FlagConfig& cfg,
                                      const Invocation& inv,
                                      double nominal) {
  fault_metrics().injected.inc();
  const bool transient = !injector_->decide(cfg).deterministic;
  const std::string where =
      " (config " + cfg.key() + ", invocation " + std::to_string(inv.id) +
      ")";
  switch (kind) {
    case fault::FaultKind::kCrash: {
      // The run aborted partway: half the nominal duration was spent.
      charge(costs_.faulted, 0.5 * nominal);
      throw fault::CrashFault(transient, "injected crash" + where);
    }
    case fault::FaultKind::kHang: {
      if (deadline_cycles_ > 0.0) {
        // The watchdog waited out the full deadline before giving up.
        charge(costs_.faulted, deadline_cycles_);
        fault_metrics().deadline.inc();
        throw fault::DeadlineExceeded(
            deadline_cycles_, "injected hang hit the deadline" + where);
      }
      throw fault::HangFault("injected hang with no deadline armed" +
                             where);
    }
    case fault::FaultKind::kTimerGlitch: {
      // RBR path: the pair ran (charge its duration) but the timer
      // glitched, so the measurements are unusable and discarded.
      charge(costs_.faulted, nominal);
      throw fault::FaultError(fault::FaultKind::kTimerGlitch, transient,
                              "injected timer glitch" + where);
    }
    case fault::FaultKind::kCheckpointCorrupt: {
      // The save completed (and is charged) but verification of the
      // restored image failed; the measurement pair is lost.
      charge_save(modified_input_bytes_);
      throw fault::CheckpointCorruptFault(
          transient, "injected checkpoint corruption" + where);
    }
    case fault::FaultKind::kNone:
    case fault::FaultKind::kMiscompile:
    case fault::FaultKind::kHardCrash:  // handled (fatally) in fault_kind
      break;
  }
  PEAK_CHECK(false, "raise_fault called with a non-raising kind");
}

InvocationResult SimExecutionBackend::invoke(const search::FlagConfig& cfg,
                                             const Invocation& inv) {
  const BaseRun& base = base_run(inv);
  const double mult = multiplier(cfg, inv);
  const fault::FaultKind fk = fault_kind(cfg, inv);
  const double nominal = base.cycles * mult * inv.irregularity;
  // Fault paths throw before any noise draw: a retried transient fault
  // resumes the perturbation stream exactly where a fault-free run would
  // be, so transient faults cost time but never skew samples.
  if (fk == fault::FaultKind::kCrash || fk == fault::FaultKind::kHang)
    raise_fault(fk, cfg, inv, nominal);
  warmth_.on_new_data();
  InvocationResult result;
  if (fk == fault::FaultKind::kTimerGlitch) {
    // The run completes (charge its nominal duration) but the timer
    // wrapped: report an absurd reading, again without a noise draw.
    fault_metrics().injected.inc();
    charge(costs_.faulted, nominal);
    result.time = std::numeric_limits<double>::infinity();
  } else {
    result.time = timed_run(base, mult, inv.irregularity);
  }
  result.counters = base.counters;
  result.output_digest = base.digest;
  if (fk == fault::FaultKind::kMiscompile) {
    fault_metrics().injected.inc();
    result.output_digest ^= digest_corruption(cfg);
  }
  return result;
}

double SimExecutionBackend::expected_time(const search::FlagConfig& cfg,
                                          const Invocation& inv) {
  const BaseRun& base = base_run(inv);
  // Expected value over noise is ~exp(sigma^2/2) ≈ 1. A production
  // invocation always runs on fresh data, so the cold-start factor and the
  // data-dependent irregularity both belong in the expectation.
  return base.cycles * multiplier(cfg, inv) * inv.irregularity *
         warmth_.fresh_multiplier();
}

std::vector<RbrPairResult> SimExecutionBackend::invoke_rbr_batch(
    const search::FlagConfig& best, const search::FlagConfig& exp,
    const Invocation& inv, const RbrOptions& opts) {
  std::vector<RbrPairResult> results;
  const std::size_t pairs = std::max<std::size_t>(opts.batch_pairs, 1);
  results.reserve(pairs);

  // The invocation's data is bound once; save and precondition happen for
  // the first pair only. Subsequent pairs re-time both versions under the
  // already-warm, already-checkpointed state — only the restore between
  // timed runs repeats.
  for (std::size_t p = 0; p < pairs; ++p) {
    RbrOptions one = opts;
    one.batch_pairs = 1;
    if (p == 0) {
      results.push_back(invoke_rbr_pair(best, exp, inv, one));
      continue;
    }
    const BaseRun& base = base_run(inv);
    const double m_best = multiplier(best, inv);
    const double m_exp = multiplier(exp, inv);
    RbrPairResult r;
    r.swapped = swap_toggle_;
    swap_toggle_ = !swap_toggle_;
    r.overhead += charge_restore(modified_input_bytes_);
    const double first =
        timed_run(base, r.swapped ? m_exp : m_best, inv.irregularity);
    r.overhead += charge_restore(modified_input_bytes_);
    const double second =
        timed_run(base, r.swapped ? m_best : m_exp, inv.irregularity);
    r.time_best = r.swapped ? second : first;
    r.time_exp = r.swapped ? first : second;
    // Both runs are pure tuning work: the production execution already
    // happened in the first pair of the batch.
    r.overhead += r.time_best + r.time_exp;
    results.push_back(r);
  }
  return results;
}

RbrPairResult SimExecutionBackend::invoke_rbr_pair(
    const search::FlagConfig& best, const search::FlagConfig& exp,
    const Invocation& inv, const RbrOptions& opts) {
  const BaseRun& base = base_run(inv);
  const double m_best = multiplier(best, inv);
  const double m_exp = multiplier(exp, inv);

  // Faults are attributed to the experimental version (the current best
  // already survived validation). All raising kinds throw here, before
  // any noise draw; a miscompiled version times normally and is caught by
  // the guarded executor's digest validation instead.
  const fault::FaultKind fk = fault_kind(exp, inv);
  if (fk != fault::FaultKind::kNone && fk != fault::FaultKind::kMiscompile)
    raise_fault(fk, exp, inv, base.cycles * m_exp * inv.irregularity);

  RbrPairResult result;
  warmth_.on_new_data();

  if (opts.improved) {
    // Improved method (Fig. 4): swap, save Modified_Input, precondition,
    // restore, time first, restore, time second.
    result.swapped = swap_toggle_;
    swap_toggle_ = !swap_toggle_;

    result.overhead += charge_save(modified_input_bytes_);

    // Precondition run: brings the data into the cache; not timed.
    const double precond =
        timed_run(base, m_best, inv.irregularity, /*precondition=*/true);
    result.overhead += precond;

    result.overhead += charge_restore(modified_input_bytes_);

    const double first =
        timed_run(base, result.swapped ? m_exp : m_best, inv.irregularity);

    result.overhead += charge_restore(modified_input_bytes_);

    const double second =
        timed_run(base, result.swapped ? m_best : m_exp, inv.irregularity);

    result.time_best = result.swapped ? second : first;
    result.time_exp = result.swapped ? first : second;
    // One of the two timed runs would have happened in production anyway;
    // count the slower bookkeeping view: the experimental run is overhead.
    result.overhead += result.time_exp;
  } else {
    // Basic method (Fig. 3): save full input, time v1 cold, restore,
    // time v2 — which then enjoys the cache v1 warmed (the bias the
    // improved method exists to remove).
    result.swapped = false;

    result.overhead += charge_save(full_input_bytes_);

    result.time_best = timed_run(base, m_best, inv.irregularity);  // cold

    result.overhead += charge_restore(full_input_bytes_);

    result.time_exp =
        timed_run(base, m_exp, inv.irregularity);  // warm: biased faster
    result.overhead += result.time_exp;
  }
  return result;
}

}  // namespace peak::sim
