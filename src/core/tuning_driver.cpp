#include "core/tuning_driver.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <optional>
#include <set>
#include <utility>

#include "analysis/instrumentation.hpp"
#include "core/jsonl.hpp"
#include "core/rating_cache.hpp"
#include "core/rating_delta.hpp"
#include "dist/coordinator.hpp"
#include "obs/attribution.hpp"
#include "obs/event_ring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc/supervisor.hpp"
#include "rating/baselines.hpp"
#include "rating/cbr.hpp"
#include "rating/mbr.hpp"
#include "rating/rbr.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/shutdown.hpp"
#include "support/thread_pool.hpp"

namespace peak::core {

namespace {

/// Cached references into the global metrics registry; resolving by name
/// once keeps the per-rating updates down to relaxed atomic ops.
struct DriverMetrics {
  obs::Counter& configs_evaluated =
      obs::counter("search.configs_evaluated");
  obs::Counter& ratings_started = obs::counter("rating.started");
  obs::Counter& ratings_converged = obs::counter("rating.converged");
  obs::Counter& ratings_exhausted = obs::counter("rating.exhausted");
  obs::Counter& invocations = obs::counter("rating.invocations");
  obs::Histogram& window_occupancy = obs::histogram(
      "rating.window_samples", {10, 20, 40, 80, 160, 320, 640});
  obs::Gauge& mbr_residual = obs::gauge("rating.mbr_residual");
  obs::Counter& quarantined = obs::counter("fault.quarantined");

  static DriverMetrics& get() {
    static DriverMetrics metrics;
    return metrics;
  }
};

/// Exhaustion fraction beyond which tune_auto() falls back to the next
/// applicable rating method (paper Section 3, method switching).
constexpr double kMaxExhaustedFraction = 0.3;

/// Validate the output digest of any config that rates as an
/// improvement before the search may adopt it (one extra invocation
/// per distinct improving config; miscompiles are quarantined).
constexpr bool kValidateImprovements = true;

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

/// Rates configurations with one method. Every rating is a batch member
/// described by one MemberTask: its measurement stream is reseeded from
/// (seed, base, candidate), it runs on a per-slot backend clone reading
/// no EVAL but its task's, and all it changes comes back as a
/// RatingDelta that is merged in canonical candidate order. The outcome
/// therefore does not depend on the slot count, the transport (threads,
/// forked workers, TCP fleet), cache hits or a resume, which looks
/// members up in the journal by the same task key as the cache.
class TuningDriver::Evaluator final : public search::ConfigEvaluator {
public:
  Evaluator(const TuningDriver& driver, rating::Method method,
            const ir::Function& fn, fault::Quarantine& quarantine,
            RatingCache* journal)
      : driver_(driver),
        method_(method),
        fn_(fn),
        backend_seed_(support::hash_combine(
            driver.options_.seed, support::stable_hash(fn.name()))),
        traits_([&] {
          sim::TsTraits t = driver.workload_.traits();
          t.workload_scale = driver.trace_.workload_scale;
          return t;
        }()),
        quarantine_(quarantine),
        journal_(journal),
        cache_(driver.options_.rating_cache) {
    if (cache_ != nullptr || journal_ != nullptr) init_fingerprint();
  }

  /// A search that asks for one config at a time gets a singleton batch,
  /// so stream seeding, caching and journaling are uniform.
  double relative_improvement(const search::FlagConfig& base,
                              const search::FlagConfig& cfg) override {
    return rate_batch(base, std::vector<search::FlagConfig>{cfg}).front();
  }

  /// Quarantined configurations are hard-excluded: the search emits a
  /// kQuarantined event and skips the candidate instead of probing it.
  [[nodiscard]] bool excluded(const search::FlagConfig& cfg) const override {
    return quarantine_.contains(cfg.key());
  }

  [[nodiscard]] bool batched() const override { return true; }

  /// Rate one probe round. Every candidate is a pure function of (seed,
  /// base, candidate), so results do not depend on the slot count,
  /// scheduling, or position in the batch; members merge on the calling
  /// thread in canonical candidate order, which makes the TuningOutcome,
  /// event stream, and journal bit-identical for every search_threads.
  std::vector<double> rate_batch(
      const search::FlagConfig& base,
      const std::vector<search::FlagConfig>& candidates) override {
    // A pending SIGINT/SIGTERM surfaces here, between rounds — the last
    // journaled rating is complete, so a later --resume run replays up to
    // exactly this point.
    support::check_shutdown();
    obs::ScopedSpan span("rate_batch", "rating");
    if (span.active()) {
      span.add(obs::attr("method", rating::to_string(method_)));
      span.add(obs::attr("candidates", candidates.size()));
    }

    // Time-based methods rate the base by memoized EVAL; when the memo
    // does not hold it yet, a prologue member computes it *before* the
    // fan-out so every member's task carries the merged entry (instead of
    // all of them redundantly re-measuring the base).
    std::optional<MemberState> prologue;
    if (method_ != rating::Method::kRBR &&
        memo_.find(base.key()) == memo_.end()) {
      prologue.emplace(member(base, base, /*prologue=*/true));
      if (prologue->source == Source::kLive) run_members({&*prologue});
      merge(prologue->delta);
      record(*prologue);
      if (prologue->delta.error) {
        // The base itself cannot be rated: account the first candidate's
        // evaluation and let tune() abandon the method.
        ++evaluations_;
        DriverMetrics::get().configs_evaluated.inc();
        std::rethrow_exception(prologue->delta.error);
      }
    }

    // Members are described only now, so their tasks carry the merged
    // prologue EVAL; a journal or cache hit is the member's delta, so the
    // merge loop below does not care where a result came from.
    std::vector<MemberState> members;
    members.reserve(candidates.size());
    for (const search::FlagConfig& cfg : candidates)
      members.push_back(member(base, cfg, /*prologue=*/false));
    std::vector<MemberState*> to_run;
    for (MemberState& m : members)
      if (m.source == Source::kLive) to_run.push_back(&m);
    run_members(to_run);

    // Canonical merge, in candidate order. A member's error is rethrown
    // only after its own (partial) delta is applied.
    std::vector<double> out;
    out.reserve(members.size());
    for (MemberState& m : members) {
      merge(m.delta);
      ++evaluations_;
      DriverMetrics::get().configs_evaluated.inc();
      record(m);
      if (m.delta.error) std::rethrow_exception(m.delta.error);
      out.push_back(m.delta.r);
    }
    return out;
  }

  /// Worker-side rating of one coordinator-shipped member (see
  /// TuningDriver::rate_remote_member). Like every member it reads no
  /// EVAL but its task's, so the result is a pure function of the task.
  std::string rate_remote(const MemberTask& task) {
    const search::OptimizationSpace& space = driver_.effects_.space();
    PEAK_CHECK(task.base_key.size() == space.size() &&
                   task.cfg_key.size() == space.size(),
               "remote task: config key does not match the space");
    search::FlagConfig base(space);
    search::FlagConfig cfg(space);
    for (std::size_t i = 0; i < space.size(); ++i) {
      base.set(i, task.base_key[i] == '1');
      cfg.set(i, task.cfg_key[i] == '1');
    }
    MemberState m;
    m.task = task;
    m.base = &base;
    m.cfg = &cfg;
    ensure_slots(1);
    m.backend = slots_[0].get();
    run_member(m);
    return m.delta.encode();
  }

  /// Fold this evaluator's per-phase simulated-cycle attribution into
  /// the global metrics registry and the cost ledger (under the caller's
  /// attribution path — tune() has machine/benchmark/section/method
  /// scopes open). Called once, after the search ends; on a resumed run
  /// the replayed deltas already merged their cycles, so the ledger of a
  /// resumed run matches the uninterrupted one.
  void publish_costs() const {
    obs::gauge("sim.cycles_timed").add(costs_.timed);
    obs::gauge("sim.cycles_precondition").add(costs_.precondition);
    obs::gauge("sim.cycles_checkpoint").add(costs_.checkpoint);
    obs::gauge("sim.cycles_faulted").add(costs_.faulted);
    obs::gauge("sim.cycles_retry").add(costs_.retry);
    obs::gauge("sim.cycles_whole_program_surcharge")
        .add(whole_program_surcharge_);
    obs::counter("rbr.checkpoint_saves").inc(costs_.saves);
    obs::counter("rbr.checkpoint_restores").inc(costs_.restores);
    obs::counter("rbr.checkpoint_bytes").inc(costs_.checkpoint_bytes);

    obs::charge_phase("timed", costs_.timed);
    obs::charge_phase("precondition", costs_.precondition);
    obs::charge_phase("checkpoint", costs_.checkpoint);
    obs::charge_phase("faulted", costs_.faulted);
    obs::charge_phase("retry", costs_.retry);
    obs::charge_phase("whole_program", whole_program_surcharge_);
    // Wall-only phase: the rating cache consumes no simulated cycles
    // (the cycles a hit *saves* re-enter through the cached cost deltas).
    if (cache_wall_us_ > 0.0)
      obs::charge_phase("cache", 0.0, cache_wall_us_);
    // Wall burned by dead worker processes (isolate_workers). Wall-only
    // for the same reason as the cache phase: simulated time must stay
    // bit-identical to the crash-free run.
    if (proc_retry_wall_us_ > 0.0)
      obs::charge_phase("retry", 0.0, proc_retry_wall_us_);
    if (proc_faulted_wall_us_ > 0.0)
      obs::charge_phase("faulted", 0.0, proc_faulted_wall_us_);
    // Wall spent inside this evaluator's rating calls goes to the method
    // node itself (it spans several cycle phases at once); the method's
    // wall total is then rating wall + the search_overhead phase.
    obs::charge_phase("", 0.0,
                      obs::evaluator_wall_us() - evaluator_wall_at_start_);
  }

  [[nodiscard]] TuningCost cost() const {
    TuningCost c;
    c.simulated_time = costs_.accumulated + whole_program_surcharge_;
    c.invocations = invocations_;
    c.configs_evaluated = evaluations_;
    c.program_runs = driver_.trace_.invocations.empty()
                         ? 0.0
                         : static_cast<double>(invocations_) /
                               static_cast<double>(
                                   driver_.trace_.invocations.size());
    return c;
  }

  [[nodiscard]] double exhausted_fraction() const {
    return ratings_ == 0 ? 0.0
                         : static_cast<double>(exhausted_) /
                               static_cast<double>(ratings_);
  }

private:
  /// Where a member's delta comes from: rated by this run (here or in a
  /// worker), recorded in the journal or the rating cache, or synthesized
  /// for a worker process that never returned one.
  enum class Source { kLive, kJournal, kCache, kLost };

  /// One rating of a batch. Everything it *reads* is its task (stream
  /// seed, memo EVALs, quarantine entries, validation verdict) or
  /// immutable during the fan-out (the trace, the fault settings);
  /// everything it *writes* lands in `delta`, which merge() folds into
  /// the evaluator on the primary thread, in canonical candidate order.
  struct MemberState {
    MemberTask task;
    const search::FlagConfig* base = nullptr;  ///< task.base_key's config
    const search::FlagConfig* cfg = nullptr;   ///< task.cfg_key's config
    sim::SimExecutionBackend* backend = nullptr;
    std::optional<fault::GuardedExecutor> guard;
    fault::Quarantine quarantine;  ///< seeded from task.faults
    std::size_t cursor = 0;        ///< member-local stream cursor
    RatingDelta delta;
    Source source = Source::kLive;
    std::string key;  ///< store key; set when a journal or cache is open
  };

  /// A member and its task, built from the merged state. The stream seed
  /// is a pure function of (run seed, section, base bits, candidate
  /// bits), so a candidate's measurement stream is independent of batch
  /// position, thread count, and everything rated before it; the memo
  /// EVALs and quarantine entries are the merged ones of the base and the
  /// candidate, all a rating looks up. A journal or cache hit is the
  /// member's delta.
  MemberState member(const search::FlagConfig& base,
                     const search::FlagConfig& cfg, bool prologue) {
    MemberState m;
    m.base = &base;
    m.cfg = &cfg;
    MemberTask& t = m.task;
    t.method = method_;
    t.base_key = base.key();
    t.cfg_key = cfg.key();
    t.prologue = prologue;
    t.seed = support::hash_combine(
        support::hash_combine(backend_seed_, support::stable_hash(t.base_key)),
        support::stable_hash(t.cfg_key));
    // The prologue rates (base, base) with a distinct stream from a
    // hypothetical (base, base) candidate.
    if (prologue) t.seed = support::hash_combine(t.seed, 0x70726f6c6f677565ULL);
    const auto add_state = [&](const std::string& key) {
      if (const auto it = memo_.find(key); it != memo_.end())
        t.memo.emplace_back(key, it->second);
      const auto& entries = quarantine_.entries();
      if (const auto it = entries.find(key); it != entries.end())
        t.faults.push_back({key, it->second.kind, it->second.failures,
                            it->second.quarantined});
    };
    add_state(t.base_key);
    if (t.cfg_key != t.base_key) add_state(t.cfg_key);
    t.validated = validated_.count(t.cfg_key) != 0;
    look_up(m);
    return m;
  }

  void ensure_slots(std::size_t n) {
    while (slots_.size() < n) {
      auto clone = std::make_unique<sim::SimExecutionBackend>(
          fn_, traits_, driver_.machine_, driver_.effects_, backend_seed_);
      clone->set_checkpoint_bytes(
          driver_.profile_.input_sets.input_bytes(fn_),
          driver_.profile_.checkpoint_plan.bytes(fn_));
      if (driver_.options_.fault.injector != nullptr)
        clone->set_fault_injector(driver_.options_.fault.injector);
      slots_.push_back(std::move(clone));
    }
  }

  /// Rate `targets` (canonical batch order) on the member transport the
  /// options select — the TCP fleet, forked workers, or in-process slot
  /// threads. This is the only place that chooses; every transport runs
  /// run_member() against the same frozen state and hands back the
  /// member's delta, so the choice moves where a rating runs, never what
  /// it returns.
  void run_members(const std::vector<MemberState*>& targets) {
    if (targets.empty()) return;
    const DriverOptions& options = driver_.options_;
    if (options.coordinator != nullptr) {
      run_remote(targets);
      return;
    }
    if (options.isolate_workers >= 1) {
      run_isolated(targets);
      return;
    }
    const std::size_t slots =
        std::min<std::size_t>(options.search_threads, targets.size());
    ensure_slots(slots);
    if (slots == 1) {
      for (MemberState* m : targets) {
        m->backend = slots_[0].get();
        run_member(*m);
      }
      return;
    }
    if (pool_ == nullptr)
      pool_ = std::make_unique<support::ThreadPool>(options.search_threads);
    // Each slot claims the next unrated member, so a slow member does not
    // hold back the ones a fixed schedule would queue behind it. Which
    // clone rates which member is left to timing: run_member() resets the
    // clone's stream, warmth, swap order and cost tallies, so the choice
    // can move only the clone's base-run cache hits, never a delta.
    // Workers adopt the submitting thread's attribution path so their
    // costs land on the same machine/benchmark/section/method node.
    const std::vector<std::string> path = obs::attribution_path();
    std::atomic<std::size_t> next{0};
    auto drain = [&](std::size_t slot) {
      obs::AttributionPathScope scope(path);
      for (;;) {
        const std::size_t j = next.fetch_add(1, std::memory_order_relaxed);
        if (j >= targets.size()) return;
        MemberState& m = *targets[j];
        m.backend = slots_[slot].get();
        run_member(m);  // never throws: errors land in m.delta.error
      }
    };
    std::vector<std::future<void>> helpers;
    helpers.reserve(slots - 1);
    for (std::size_t slot = 1; slot < slots; ++slot)
      helpers.push_back(pool_->submit([&drain, slot] { drain(slot); }));
    drain(0);  // the caller rates too
    for (std::future<void>& f : helpers) f.get();
  }

  /// Rate one member on its slot backend. Never throws: an exception
  /// (e.g. RatingNotConverging) is captured in the delta so the merge
  /// loop can rethrow it at the member's canonical position, after
  /// applying the partial delta.
  void run_member(MemberState& m) {
    for (const FaultRecord& f : m.task.faults)
      m.quarantine.restore_failures(f.key, f.kind, f.failures, f.quarantined);
    if (driver_.options_.fault.injector != nullptr &&
        driver_.options_.fault.guard_execution) {
      m.guard.emplace(*m.backend, m.quarantine,
                      driver_.options_.fault.guard);
      m.guard->set_on_fault([&m](const fault::FaultEvent& ev) {
        m.delta.events.push_back(ev);
      });
      m.guard->set_reference(*m.base);
    }
    m.backend->reset_measurement_stream(m.task.seed);
    // Zero the clone's cost tallies so this member's costs are sums that
    // start from 0.0 — whatever the slot accumulated earlier would
    // otherwise round into them, making simulated_time depend on the
    // member → slot assignment (i.e. on the thread count).
    m.backend->reset_costs();
    try {
      try {
        if (m.task.prologue) {
          rate_time(m, *m.base);
        } else if (method_ == rating::Method::kRBR) {
          m.delta.r = rbr_ratio(m);
        } else {
          const double e_base = rate_time(m, *m.base);
          const double e_cfg = rate_time(m, *m.cfg);
          PEAK_CHECK(e_cfg > 0.0, "non-positive rating");
          m.delta.r = e_base / e_cfg;
        }
        if (!m.task.prologue) maybe_validate(m, m.delta.r);
      } catch (const fault::ConfigFailed&) {
        // The configuration cannot be measured: quarantined, retry budget
        // exhausted, or miscompiled. Report "no improvement" so the
        // search moves on; excluded() keeps it from being probed again.
        m.delta.r = 0.0;
      }
    } catch (...) {
      m.delta.error = std::current_exception();
    }
    m.delta.cost = m.backend->costs();
    std::set<std::string> faulted;  // one entry per key, in key order
    for (const fault::FaultEvent& ev : m.delta.events)
      faulted.insert(ev.config_key);
    for (const std::string& key : faulted) {
      const auto it = m.quarantine.entries().find(key);
      if (it == m.quarantine.entries().end()) continue;
      m.delta.fails.push_back({key, it->second.kind, it->second.failures,
                               it->second.quarantined});
    }
  }

  const sim::Invocation& next_invocation(MemberState& m) {
    const auto& invs = driver_.trace_.invocations;
    const sim::Invocation& inv = invs[m.cursor];
    m.cursor = (m.cursor + 1) % invs.size();
    ++m.delta.invocations;
    return inv;
  }

  /// Measurement entry point: guarded when fault tolerance is on, the
  /// raw backend otherwise (bit-identical to the fault-oblivious driver —
  /// the guard is not even constructed).
  sim::InvocationResult measure(MemberState& m,
                                const search::FlagConfig& cfg,
                                const sim::Invocation& inv) {
    return m.guard ? m.guard->invoke(cfg, inv) : m.backend->invoke(cfg, inv);
  }

  /// Validate the output digest of an improving configuration before the
  /// search may adopt it. Throws fault::ConfigFailed on a miscompile
  /// (which also quarantines the config).
  void maybe_validate(MemberState& m, double r) {
    if (!m.guard || !kValidateImprovements) return;
    if (r <= 1.0 || m.task.validated) return;
    m.guard->validate(*m.cfg, next_invocation(m));
    m.delta.validated.push_back(m.task.cfg_key);
  }

  void observe_rating(MemberState& m, bool converged, std::size_t samples) {
    m.delta.robs.push_back({converged, static_cast<std::uint64_t>(samples)});
  }

  /// RBR: the ratio of paired re-executions of base and candidate.
  double rbr_ratio(MemberState& m) {
    ++m.delta.ratings_started;
    rating::ReexecutionRater rater(driver_.options_.window);
    sim::RbrOptions rbr_opts;
    rbr_opts.improved = driver_.options_.improved_rbr;
    rbr_opts.batch_pairs = driver_.options_.rbr_batch_pairs;
    while (!rater.converged() && !rater.exhausted()) {
      const sim::Invocation& inv = next_invocation(m);
      const std::vector<sim::RbrPairResult> pairs =
          m.guard ? m.guard->invoke_rbr_batch(*m.base, *m.cfg, inv,
                                              rbr_opts)
                  : m.backend->invoke_rbr_batch(*m.base, *m.cfg, inv,
                                                rbr_opts);
      for (const sim::RbrPairResult& pair : pairs) {
        rater.add_pair(pair.time_best, pair.time_exp);
        if (rater.converged() || rater.exhausted()) break;
      }
    }
    if (!rater.converged()) ++m.delta.exhausted;
    const rating::Rating r = rater.rating();
    observe_rating(m, rater.converged(), r.samples);
    // Significance gate: with very noisy sections (EQUAKE's irregular
    // memory) the window may cap out with a standard error comparable to
    // the search's improvement threshold; reporting a statistically
    // insignificant ratio would let noise eliminate useful options (the
    // paper's "if the rating is inaccurate, the tuning system will yield
    // limited performance or even degradation"). Below 3 SEM the verdict
    // is "no measurable difference".
    const double sem =
        r.samples > 0 ? std::sqrt(r.var / static_cast<double>(r.samples))
                      : 0.0;
    if (std::fabs(r.eval - 1.0) < 3.0 * sem) return 1.0;
    return r.eval;
  }

  /// Time-like EVAL of one configuration (CBR, MBR, AVG, WHL), memoized
  /// by config key. A member looks EVALs up in its task (the merged memo
  /// when the task was built, after the prologue) and then in its own
  /// additions — never in the shared memo.
  double rate_time(MemberState& m, const search::FlagConfig& cfg) {
    const std::string key = cfg.key();
    for (const auto* memo : {&m.task.memo, &m.delta.memo})
      for (const auto& [k, v] : *memo)
        if (k == key) return v;
    ++m.delta.ratings_started;

    double eval = 0.0;
    switch (method_) {
      case rating::Method::kCBR: {
        rating::ContextBasedRater rater(driver_.options_.window);
        // With many contexts only a fraction of invocations feed the
        // dominant bucket, so the stream budget scales with the context
        // count (capped) — this is exactly why forcing CBR onto a
        // many-context section (MGRID_CBR) wastes tuning time.
        const std::size_t budget =
            driver_.options_.window.max_samples *
            std::clamp<std::size_t>(driver_.profile_.num_contexts, 1, 50);
        while (!rater.converged() && rater.total_samples() < budget) {
          const sim::Invocation& inv = next_invocation(m);
          rater.add(inv.context, measure(m, cfg, inv).time);
        }
        if (!rater.converged()) ++m.delta.exhausted;
        const rating::Rating r = rater.rating();
        observe_rating(m, rater.converged(), r.samples);
        eval = r.eval;
        break;
      }
      case rating::Method::kMBR: {
        rating::ModelBasedRater rater(
            driver_.profile_.components.num_components(),
            driver_.profile_.mbr_profile, driver_.options_.mbr);
        while (!rater.converged() && !rater.exhausted()) {
          const sim::Invocation& inv = next_invocation(m);
          const sim::InvocationResult r = measure(m, cfg, inv);
          rater.add_counters(*r.counters, r.time);
        }
        if (!rater.converged()) ++m.delta.exhausted;
        const rating::Rating r = rater.rating();
        observe_rating(m, rater.converged(), r.samples);
        // r.var carries the fit's unexplained-variance ratio — the MBR
        // regression residual the obs layer reports.
        m.delta.mbr_residual = r.var;
        eval = r.eval;
        break;
      }
      case rating::Method::kAVG: {
        rating::ContextObliviousRater rater(driver_.options_.window);
        while (!rater.converged() && !rater.exhausted()) {
          const sim::Invocation& inv = next_invocation(m);
          rater.add(measure(m, cfg, inv).time);
        }
        if (!rater.converged()) ++m.delta.exhausted;
        const rating::Rating r = rater.rating();
        observe_rating(m, rater.converged(), r.samples);
        eval = r.eval;
        break;
      }
      case rating::Method::kWHL: {
        rating::WholeProgramRater rater;
        while (!rater.converged() && !rater.exhausted()) {
          // One full application run per sample. The run also executes
          // everything *around* the tuning section, which WHL must pay
          // for — that surcharge is the core of its cost disadvantage.
          double run_ts_time = 0.0;
          for (std::size_t i = 0; i < driver_.trace_.invocations.size();
               ++i) {
            const double t = measure(m, cfg, next_invocation(m)).time;
            rater.add_invocation(t);
            run_ts_time += t;
          }
          rater.end_run();
          const double fraction = driver_.workload_.ts_time_fraction();
          m.delta.whole_program_surcharge +=
              run_ts_time * (1.0 / fraction - 1.0);
        }
        const rating::Rating r = rater.rating();
        observe_rating(m, rater.converged(), r.samples);
        eval = r.eval;
        break;
      }
      case rating::Method::kRBR:
        PEAK_CHECK(false, "RBR is pair-based; use rbr_ratio");
        break;
    }
    if (eval <= 0.0) {
      ++m.delta.exhausted;
      throw RatingNotConverging(
          std::string(rating::to_string(method_)) +
          " produced no estimate for " + driver_.workload_.full_name());
    }
    m.delta.memo.emplace_back(key, eval);
    return eval;
  }

  /// Fold one delta into the evaluator: the single merge step for live,
  /// cached and journaled ratings alike. Primary thread only, canonical
  /// candidate order. Quarantine counts merge by restoring the member's
  /// observed counts; two members of one batch failing on the *same* key
  /// keep the higher count rather than the sum (documented undercount —
  /// deterministic, and conservative in the direction of re-measuring).
  /// A quarantine is counted here, once, whichever transport rated it.
  void merge(const RatingDelta& d) {
    DriverMetrics& dm = DriverMetrics::get();
    for (const FaultRecord& f : d.fails) {
      if (f.failures > quarantine_.failures_of(f.key))
        quarantine_.restore_failures(f.key, f.kind, f.failures);
      if (f.quarantined && quarantine_.quarantine(f.key, f.kind))
        dm.quarantined.inc();
    }
    for (const auto& [key, eval] : d.memo) memo_.emplace(key, eval);
    for (const std::string& key : d.validated) validated_.insert(key);

    dm.invocations.inc(d.invocations);
    dm.ratings_started.inc(d.ratings_started);
    for (const RatingDelta::RatingObs& o : d.robs) {
      (o.converged ? dm.ratings_converged : dm.ratings_exhausted).inc();
      dm.window_occupancy.observe(static_cast<double>(o.samples));
    }
    if (d.mbr_residual) dm.mbr_residual.set(*d.mbr_residual);

    invocations_ += d.invocations;
    ratings_ += d.ratings_started;
    exhausted_ += d.exhausted;
    whole_program_surcharge_ += d.whole_program_surcharge;
    costs_ += d.cost;
  }

  /// Look the member up by its task's key: in the journal on resume,
  /// then in the rating cache. A hit is the member's delta.
  void look_up(MemberState& m) {
    if (journal_ == nullptr && cache_ == nullptr) return;
    m.key = fingerprint_.key(m.task);
    if (journal_ != nullptr && driver_.options_.fault.resume) {
      if (std::optional<RatingDelta> hit = journal_->lookup(m.key)) {
        m.source = Source::kJournal;
        m.delta = std::move(*hit);
        return;
      }
    }
    if (cache_ == nullptr) return;
    const auto t0 = std::chrono::steady_clock::now();
    if (std::optional<RatingDelta> hit = cache_->lookup(m.key)) {
      m.source = Source::kCache;
      m.delta = std::move(*hit);
    }
    cache_wall_us_ += us_since(t0);
  }

  /// Record a merged member: the journal keeps every delta it does not
  /// hold yet, the rating cache only live ratings (a synthesized process
  /// failure is the transport's verdict, not a rating). Neither keeps a
  /// delta that rethrows: an exception's type does not survive the
  /// encoding (an unguarded FaultError would come back as a
  /// runtime_error), so a resume re-rates that member and throws the
  /// original again.
  void record(const MemberState& m) {
    if (m.delta.error) return;
    if (journal_ != nullptr && m.source != Source::kJournal)
      journal_->store(m.key, m.delta);
    if (cache_ == nullptr || m.source != Source::kLive) return;
    const auto t0 = std::chrono::steady_clock::now();
    cache_->store(m.key, m.delta);
    cache_wall_us_ += us_since(t0);
  }

  // ---- Worker transports -------------------------------------------------

  /// Run `targets` in forked worker subprocesses under a
  /// proc::Supervisor. Its scheduler deals task i to worker i % W and
  /// lets idle workers steal, so any worker may run any task; a worker
  /// rates each with run_member() on one slot clone, as an in-process
  /// slot thread does, and only the transport differs (an encoded
  /// RatingDelta frame instead of shared memory). A worker death requeues
  /// the task with a bumped process-attempt counter, for a fresh fork or
  /// another worker; after max_task_attempts the config is treated as a
  /// deterministic crasher (see synthesize_process_failure).
  void run_isolated(const std::vector<MemberState*>& targets) {
    const std::size_t slots = std::min<std::size_t>(
        driver_.options_.isolate_workers, targets.size());
    ensure_slots(slots);
    proc::SupervisorPolicy policy;
    policy.workers = slots;
    // The TaskFn body executes in the forked child: it inherits the
    // evaluator frozen at fork time (members, quarantine, slot clones) by
    // copy-on-write and ships the member's delta back as one frame.
    // Nothing the child mutates is visible here.
    proc::Supervisor sup(
        [this, &targets, slots, clone = slots](std::size_t task,
                                               std::size_t attempt) mutable {
          // Each fork keeps to the first clone it touched, so a stolen
          // task does not copy another clone's pages on write.
          if (clone == slots) clone = task % slots;
          MemberState& m = *targets[task];
          m.backend = slots_[clone].get();
          // Lets a transient hard-crash verdict clear on the retry fork
          // (and a deterministic one keep firing until quarantine).
          m.backend->set_process_attempt(attempt);
          run_member(m);
          return m.delta.encode();
        },
        policy);
    collect(targets, sup.run(targets.size()));
  }

  /// Run `targets` on the coordinator's worker fleet. Each member's
  /// MemberTask ships unchanged as its task frame, so the remote rating
  /// is the same pure function of content the local slot threads compute.
  void run_remote(const std::vector<MemberState*>& targets) {
    std::vector<MemberTask> tasks;
    tasks.reserve(targets.size());
    for (const MemberState* m : targets) tasks.push_back(m->task);
    collect(targets, driver_.options_.coordinator->run_round(tasks));
  }

  /// Take a worker transport's per-task outcomes: a delivered frame is
  /// the member's delta, a task no worker completed becomes a synthesized
  /// failure.
  void collect(const std::vector<MemberState*>& targets,
               const std::vector<proc::TaskOutcome>& outs) {
    PEAK_CHECK(outs.size() == targets.size(), "worker outcome arity");
    for (std::size_t i = 0; i < targets.size(); ++i) {
      MemberState& m = *targets[i];
      if (outs[i].ok)
        m.delta =
            RatingDelta::decode(jsonl::JsonParser(outs[i].payload).parse());
      else
        synthesize_process_failure(m, outs[i]);
      // Wall burned on dead attempts is real tuning overhead, but never
      // simulated cycles: charging cycles would perturb simulated_time
      // and break bit-identity with the crash-free run. Retried-then-
      // succeeded attempts land on "retry", given-up ones on "faulted".
      for (const proc::WorkerFailure& f : outs[i].failures)
        (outs[i].ok ? proc_retry_wall_us_ : proc_faulted_wall_us_) +=
            f.burned_wall_us;
    }
  }

  /// The member's rating never completed on any process attempt. The
  /// config gets "no improvement" (the ConfigFailed answer) and, when
  /// every attempt died the same way, a quarantine entry — a
  /// deterministic crasher must never be probed again. Mixed failure
  /// signatures record the failures without quarantining (conservative in
  /// the direction of re-measuring). Nothing here touches the simulated
  /// clock, so the surviving members stay bit-identical.
  void synthesize_process_failure(MemberState& m,
                                  const proc::TaskOutcome& out) {
    m.source = Source::kLost;
    m.delta = RatingDelta{};
    const std::string& key = m.task.cfg_key;
    std::uint64_t failures = out.failures.size();
    for (const FaultRecord& f : m.task.faults)
      if (f.key == key) failures += f.failures;
    fault::FaultKind kind = fault::FaultKind::kHardCrash;
    if (!out.failures.empty() &&
        out.failures.front().cls == proc::ExitClass::kTimeout)
      kind = fault::FaultKind::kHang;
    const bool deterministic = out.failures_identical();
    m.delta.fails.push_back({key, kind, failures, deterministic});
    fault::FaultEvent ev;
    ev.kind = kind;
    ev.config_key = key;
    ev.attempt = out.attempts == 0 ? 0 : out.attempts - 1;
    ev.gave_up = true;
    ev.quarantined = deterministic;
    m.delta.events.push_back(std::move(ev));
    if (m.task.prologue)
      // The *base* crashes its process deterministically: no candidate
      // can be rated against it, so the method is unusable here — same
      // answer RatingNotConverging gives for an unmeasurable base.
      m.delta.error = std::make_exception_ptr(RatingNotConverging(
          "base rating crashed its worker process for " +
          driver_.workload_.full_name()));
  }

  /// Everything a batched rating's outcome is a function of, besides its
  /// MemberTask: machine, section, trace content, run seed, rating
  /// parameters, the effect model's behaviour, and the fault layer.
  void init_fingerprint() {
    RatingCache::Fingerprint& f = fingerprint_;
    f.mix_string(driver_.machine_.name);
    f.mix_string(driver_.workload_.full_name());
    f.mix(driver_.options_.seed);
    const rating::WindowPolicy& w = driver_.options_.window;
    f.mix(w.min_samples);
    f.mix(w.max_samples);
    f.mix_double(w.cv_threshold);
    f.mix(static_cast<std::uint64_t>(w.outliers.rule));
    f.mix_double(w.outliers.k);
    f.mix_double(w.outliers.max_drop_fraction);
    f.mix(static_cast<std::uint64_t>(w.outliers.max_iterations));
    const rating::MbrPolicy& mb = driver_.options_.mbr;
    f.mix(mb.min_samples_per_component);
    f.mix(mb.max_samples);
    f.mix_double(mb.var_threshold);
    f.mix_double(mb.cv_threshold);
    f.mix_double(mb.dominant_share);
    f.mix(driver_.options_.improved_rbr ? 1 : 0);
    f.mix(driver_.options_.rbr_batch_pairs);
    f.mix(driver_.profile_.num_contexts);
    f.mix(driver_.profile_.input_sets.input_bytes(fn_));
    f.mix(driver_.profile_.checkpoint_plan.bytes(fn_));
    f.mix_double(driver_.workload_.ts_time_fraction());
    // Trace content: ids, contexts, cacheability, irregularity.
    f.mix_double(driver_.trace_.workload_scale);
    f.mix(driver_.trace_.invocations.size());
    for (const sim::Invocation& inv : driver_.trace_.invocations) {
      f.mix(inv.id);
      f.mix(inv.context_determines_time ? 1 : 0);
      f.mix_double(inv.irregularity);
      f.mix(inv.context.size());
      for (double c : inv.context) f.mix_double(c);
    }
    // Effect-model fingerprint: the multipliers of the two canonical
    // configurations pin down the model's seed and curated story (any
    // change to either moves these bit patterns).
    const search::OptimizationSpace& space = driver_.effects_.space();
    f.mix_double(driver_.effects_.time_multiplier(
        traits_, driver_.machine_, search::o3_config(space)));
    f.mix_double(driver_.effects_.time_multiplier(
        traits_, driver_.machine_, search::baseline_config(space)));
    // The fault layer: which faults fire, and how the guard answers them.
    const FaultOptions& fo = driver_.options_.fault;
    f.mix(fo.injector != nullptr ? fo.injector->digest() : 0);
    f.mix(fo.guard_execution ? 1 : 0);
    f.mix_double(fo.guard.deadline_factor);
    f.mix(fo.guard.max_retries);
    f.mix(fo.guard.quarantine_after);
    f.mix_double(fo.guard.backoff_fraction);
  }

  const TuningDriver& driver_;
  rating::Method method_;
  const ir::Function& fn_;
  /// Seed of the slot clones; member stream seeds derive from it, so
  /// they are content-addressed too.
  std::uint64_t backend_seed_;
  /// The section's traits at the tuning trace's workload scale.
  sim::TsTraits traits_;
  /// Sum of the merged members' simulated-cycle costs.
  sim::Costs costs_;
  std::map<std::string, double> memo_;
  std::size_t invocations_ = 0;
  std::size_t evaluations_ = 0;  ///< relative_improvement() calls
  std::size_t ratings_ = 0;
  std::size_t exhausted_ = 0;
  double whole_program_surcharge_ = 0.0;

  fault::Quarantine& quarantine_;
  RatingCache* journal_;  ///< null = no journaling
  /// Configs whose output digest already passed validation.
  std::set<std::string> validated_;
  /// evaluator_wall_us() at construction; publish_costs() charges the
  /// delta as this method's rating wall.
  double evaluator_wall_at_start_ = obs::evaluator_wall_us();

  // Per-slot backend clones. In-process slot threads claim members in
  // timing order, and a forked worker keeps to the clone of its first
  // task; every rating resets its clone's measurement stream, so the
  // results do not depend on which clone rates which member.
  std::vector<std::unique_ptr<sim::SimExecutionBackend>> slots_;
  std::unique_ptr<support::ThreadPool> pool_;
  /// Persistent rating cache; null = none.
  RatingCache* cache_;
  /// Run fingerprint: every journal and cache key starts from it.
  /// Computed only when a journal or cache is open.
  RatingCache::Fingerprint fingerprint_;
  /// Wall spent on cache lookups/stores, charged as the "cache" phase.
  double cache_wall_us_ = 0.0;
  /// Wall burned by worker-process deaths (isolate_workers): attempts
  /// that were retried successfully vs. given up on. Charged wall-only
  /// into the "retry" / "faulted" ledger phases by publish_costs().
  double proc_retry_wall_us_ = 0.0;
  double proc_faulted_wall_us_ = 0.0;
};

TuningDriver::TuningDriver(const workloads::Workload& workload,
                           const ProfileData& profile,
                           const workloads::Trace& trace,
                           const sim::MachineModel& machine,
                           const sim::FlagEffectModel& effects,
                           DriverOptions options)
    : workload_(workload),
      profile_(profile),
      trace_(trace),
      machine_(machine),
      effects_(effects),
      options_(options),
      mbr_instrumented_(
          profile.components.mbr_applicable
              ? analysis::instrument_components(workload.function(),
                                                profile.components)
              : workload.function()) {
  PEAK_CHECK(!trace_.invocations.empty(), "empty tuning trace");
  PEAK_CHECK(options_.search_threads >= 1,
             "search_threads must be at least 1");
  // Distributed rating is a transport for the batch contract, not the
  // fault layer: a task carries the quarantine and validation state its
  // member reads, but a worker rebuilds the scenario from the shipped
  // SessionSpec, which carries no injector; and process isolation is a
  // transport of its own. Refuse the combinations instead of silently
  // measuring something else.
  PEAK_CHECK(options_.coordinator == nullptr ||
                 options_.fault.injector == nullptr,
             "distributed tuning cannot run with a fault injector");
  PEAK_CHECK(options_.coordinator == nullptr ||
                 options_.isolate_workers == 0,
             "distributed tuning excludes isolate_workers");
}

TuningDriver::~TuningDriver() = default;

void TuningDriver::prepare_journal() {
  if (options_.fault.journal_path.empty() || journal_ != nullptr) return;
  using Load = RatingCache::Load;
  const Load load = !options_.fault.resume       ? Load::kNone
                    : options_.fault.journal_strict ? Load::kStrict
                                                    : Load::kRequired;
  journal_ = std::make_unique<RatingCache>(options_.fault.journal_path,
                                           load, kJournalCounters);
}

std::string TuningDriver::rate_remote_member(const MemberTask& task) {
  PEAK_CHECK(options_.fault.injector == nullptr,
             "a remote rating host cannot carry a fault injector");
  auto it = remote_evals_.find(task.method);
  if (it == remote_evals_.end()) {
    const ir::Function& fn = task.method == rating::Method::kMBR
                                 ? mbr_instrumented_
                                 : workload_.function();
    it = remote_evals_
             .emplace(task.method,
                      std::make_unique<Evaluator>(*this, task.method, fn,
                                                  quarantine_,
                                                  /*journal=*/nullptr))
             .first;
  }
  return it->second->rate_remote(task);
}

TuningOutcome TuningDriver::tune(rating::Method method) {
  const ir::Function& fn = method == rating::Method::kMBR
                               ? mbr_instrumented_
                               : workload_.function();
  prepare_journal();
  // Attribution path for every cost this tune() charges: the ledger's
  // machine → benchmark → section → method hierarchy. Thread-local, so
  // parallel section tuning attributes each worker's costs correctly.
  obs::AttributionScope machine_scope(machine_.name);
  obs::AttributionScope benchmark_scope(workload_.benchmark());
  obs::AttributionScope section_scope(workload_.ts_name());
  obs::AttributionScope method_scope(rating::to_string(method));

  Evaluator evaluator(*this, method, fn, quarantine_, journal_.get());

  search::IterativeElimination default_ie(options_.ie);
  search::SearchAlgorithm& algorithm =
      options_.search_algorithm ? *options_.search_algorithm : default_ie;
  const search::FlagConfig start = search::o3_config(effects_.space());

  obs::ScopedSpan span("tune", "driver");
  if (span.active()) {
    span.add(obs::attr("method", rating::to_string(method)));
    span.add(obs::attr("section", workload_.full_name()));
    span.add(obs::attr("search", algorithm.name()));
  }

  search::SearchResult sr;
  try {
    sr = algorithm.run(effects_.space(), evaluator, start);
  } catch (const RatingNotConverging& e) {
    // The method cannot rate anything here: abandon it, report the cost
    // spent so far, and let tune_auto() switch methods.
    evaluator.publish_costs();
    TuningOutcome outcome;
    outcome.best_config = start;
    outcome.method = method;
    outcome.cost = evaluator.cost();
    outcome.exhausted_fraction = 1.0;
    search::SearchEvent abandoned;
    abandoned.kind = search::SearchEvent::Kind::kAbandoned;
    abandoned.flag = rating::to_string(method);
    abandoned.note = e.what();
    search::record_event(outcome.events, std::move(abandoned));
    return outcome;
  }

  evaluator.publish_costs();
  TuningOutcome outcome;
  outcome.best_config = sr.best;
  outcome.method = method;
  // cost.configs_evaluated comes from the evaluator (== the number of
  // relative_improvement calls), which also equals sr.configs_evaluated
  // for every in-tree search algorithm.
  outcome.cost = evaluator.cost();
  outcome.search_improvement = sr.improvement_over_start;
  outcome.exhausted_fraction = evaluator.exhausted_fraction();
  outcome.events = std::move(sr.events);
  return outcome;
}

TuningOutcome TuningDriver::tune_auto() {
  const auto& chain = profile_.decision.chain;
  PEAK_CHECK(!chain.empty(), "no applicable rating method for " +
                                 workload_.full_name());
  TuningCost accumulated;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    TuningOutcome outcome = tune(chain[i]);
    // Fold in the cost of earlier, abandoned attempts.
    outcome.cost.simulated_time += accumulated.simulated_time;
    outcome.cost.invocations += accumulated.invocations;
    outcome.cost.program_runs += accumulated.program_runs;
    outcome.cost.configs_evaluated += accumulated.configs_evaluated;
    const bool last = i + 1 == chain.size();
    if (last ||
        outcome.exhausted_fraction <= kMaxExhaustedFraction) {
      search::SearchEvent chosen;
      chosen.kind = search::SearchEvent::Kind::kMethodChosen;
      chosen.flag = rating::to_string(chain[i]);
      chosen.round = i;  // render(): i > 0 reads "(after fallback)"
      // Prepended to the trace (the chosen method heads the log), but
      // published live in real order — the stream is chronological.
      obs::publish_run_event(std::string(search::to_string(chosen.kind)),
                             search::to_json(chosen));
      outcome.events.insert(outcome.events.begin(), std::move(chosen));
      obs::Tracer::global().instant(
          "method_chosen", "driver",
          {obs::attr("method", rating::to_string(chain[i])),
           obs::attr("fallbacks", i)});
      return outcome;
    }
    accumulated = outcome.cost;
  }
  PEAK_CHECK(false, "unreachable");
  return {};
}

std::unique_ptr<sim::SimExecutionBackend> trace_backend(
    const workloads::Workload& workload, const workloads::Trace& trace,
    const sim::MachineModel& machine, const sim::FlagEffectModel& effects) {
  sim::TsTraits traits = workload.traits();
  traits.workload_scale = trace.workload_scale;
  return std::make_unique<sim::SimExecutionBackend>(
      workload.function(), traits, machine, effects, /*seed=*/7);
}

double expected_trace_time(sim::SimExecutionBackend& backend,
                           const workloads::Trace& trace,
                           const search::FlagConfig& config) {
  double total = 0.0;
  for (const sim::Invocation& inv : trace.invocations)
    total += backend.expected_time(config, inv);
  return total;
}

double expected_trace_time(const workloads::Workload& workload,
                           const workloads::Trace& trace,
                           const sim::MachineModel& machine,
                           const sim::FlagEffectModel& effects,
                           const search::FlagConfig& config) {
  return expected_trace_time(*trace_backend(workload, trace, machine, effects),
                             trace, config);
}

}  // namespace peak::core
