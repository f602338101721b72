#include "traced.hpp"

#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/instrumentation.hpp"
#include "arith.hpp"
#include "core/rating_cache.hpp"
#include "ir/bytecode.hpp"
#include "obs/metrics.hpp"
#include "proc/supervisor.hpp"
#include "rating/mbr.hpp"
#include "rating/window.hpp"
#include "search/iterative_elimination.hpp"

namespace tunebench {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Decorates the driver's evaluator: every call across the
/// search/evaluator boundary becomes a "core.rating" span.
class TimedEvaluator final : public search::ConfigEvaluator {
public:
  TimedEvaluator(search::ConfigEvaluator& inner, SpanLog& log,
                 std::size_t session, SearchTally& tally)
      : inner_(inner), log_(log), session_(session), tally_(tally) {}

  double relative_improvement(const search::FlagConfig& base,
                              const search::FlagConfig& cfg) override {
    SpanScope span(log_, "core.rating", session_);
    return inner_.relative_improvement(base, cfg);
  }

  [[nodiscard]] bool excluded(const search::FlagConfig& cfg) const override {
    return inner_.excluded(cfg);
  }

  [[nodiscard]] bool batched() const override { return inner_.batched(); }

  std::vector<double> rate_batch(
      const search::FlagConfig& base,
      const std::vector<search::FlagConfig>& candidates) override {
    ++tally_.rounds;
    tally_.members += candidates.size();
    SpanScope span(log_, "core.rating", session_);
    return inner_.rate_batch(base, candidates);
  }

private:
  search::ConfigEvaluator& inner_;
  SpanLog& log_;
  std::size_t session_;
  SearchTally& tally_;
};

/// Iterative Elimination under a "search" span, probing through
/// TimedEvaluator. Reports IE's name so nothing downstream can tell it
/// from the default search.
class TimedSearch final : public search::SearchAlgorithm {
public:
  TimedSearch(search::IterativeEliminationOptions options, SpanLog& log,
              std::size_t session, SearchTally& tally)
      : ie_(options), log_(log), session_(session), tally_(tally) {}

  search::SearchResult run(const search::OptimizationSpace& space,
                           search::ConfigEvaluator& evaluator,
                           const search::FlagConfig& start) override {
    SpanScope span(log_, "search", session_);
    TimedEvaluator timed(evaluator, log_, session_, tally_);
    return ie_.run(space, timed, start);
  }

  [[nodiscard]] std::string name() const override { return ie_.name(); }

private:
  search::IterativeElimination ie_;
  SpanLog& log_;
  std::size_t session_;
  SearchTally& tally_;
};

}  // namespace

int SpanLog::open(std::string name, std::size_t session) {
  Span span;
  span.name = std::move(name);
  span.start_us = us_since(origin_);
  span.parent = open_.empty() ? -1 : open_.back();
  span.session = session;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = us_since(origin_);
  // Scopes close innermost first, also while an exception unwinds.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"session\":" << s.session << ",\"parent\":" << s.parent
        << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << "}\n";
  }
  return static_cast<bool>(out);
}

SpanSummary summarize(const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& sp : spans)
    if (sp.parent >= 0)
      children[static_cast<std::size_t>(sp.parent)].push_back(
          {sp.start_us, sp.end_us});
  SpanSummary summary;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Interval iv{spans[i].start_us, spans[i].end_us};
    summary.total_ms[spans[i].name] += (iv.end - iv.start) / 1000.0;
    if (spans[i].name == "session") {
      summary.session_ms += (iv.end - iv.start) / 1000.0;
      summary.covered_ms += covered(iv, children[i]) / 1000.0;
    } else if (spans[i].name == "search") {
      summary.search_self_ms += self_time(iv, children[i]) / 1000.0;
    }
  }
  return summary;
}

core::MethodRun run_traced_session(const Scenario& s, std::uint64_t seed,
                                   SpanLog& log, std::size_t session,
                                   SearchTally& tally) {
  SpanScope whole(log, "session", session);
  core::PeakOptions options = session_options(s, seed);
  options.driver.search_algorithm =
      std::make_shared<TimedSearch>(options.driver.ie, log, session, tally);
  std::optional<core::RatingCache> cache;
  if (s.spec->isolate_workers > 0) {
    SpanScope span(log, "core.cache_open", session);
    cache.emplace(s.cache_path());
    options.driver.rating_cache = &*cache;
  }
  std::optional<core::Peak> peak;  // owns the machine and effect models
  {
    SpanScope span(log, "sim.effect_model", session);
    peak.emplace(s.machine, options);
  }
  const workloads::Workload& w = *s.workload;
  const sim::MachineModel& machine = peak->machine();
  const sim::FlagEffectModel& effects = peak->effects();

  workloads::Trace train;
  workloads::Trace ref;
  {
    SpanScope span(log, "workloads.trace", session);
    train = w.trace(workloads::DataSet::kTrain, trace_seed(s, seed));
    ref = w.trace(workloads::DataSet::kRef, trace_seed(s, seed));
  }
  core::ProfileData profile;
  {
    SpanScope span(log, "core.profile", session);
    profile = core::profile_workload(w, train, machine, options.profile);
  }
  std::optional<core::TuningDriver> driver;
  {
    SpanScope span(log, "core.driver_setup", session);
    driver.emplace(w, profile, train, machine, effects, options.driver);
  }
  core::TuningOutcome outcome;
  {
    SpanScope span(log, "core.tune_auto", session);
    outcome = driver->tune_auto();
  }

  core::MethodRun run;
  run.method = outcome.method;
  run.tuned_on = workloads::DataSet::kTrain;
  run.best_config = outcome.best_config;
  run.cost = outcome.cost;
  run.exhausted_fraction = outcome.exhausted_fraction;
  {
    SpanScope span(log, "core.ref_eval", session);
    const search::FlagConfig o3 = search::o3_config(effects.space());
    const double ref_o3 =
        core::expected_trace_time(w, ref, machine, effects, o3);
    const double tuned = core::expected_trace_time(w, ref, machine, effects,
                                                   outcome.best_config);
    run.ref_improvement_pct = (ref_o3 / tuned - 1.0) * 100.0;
  }
  return run;
}

Probes run_probes(const Scenario& s, std::uint64_t seed) {
  constexpr int kPasses = 3;
  Probes probes;
  const ir::Function& fn = s.workload->function();
  const workloads::Trace train =
      s.workload->trace(workloads::DataSet::kTrain, trace_seed(s, seed));
  const core::Peak peak(s.machine, session_options(s, seed));
  const sim::FlagEffectModel& effects = peak.effects();
  const search::FlagConfig o3 = search::o3_config(effects.space());
  sim::TsTraits traits = s.workload->traits();
  traits.workload_scale = train.workload_scale;

  {  // ir: one VM run per train invocation, binding excluded
    const sim::MachineCostModel cost(s.machine);
    const ir::BytecodeProgram program = ir::BytecodeProgram::compile(fn, cost);
    ir::BytecodeVm vm(program);
    ir::Memory memory = ir::Memory::for_function(fn);
    double total_us = 0.0;
    std::size_t runs = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const sim::Invocation& inv : train.invocations) {
        memory.reset(fn);
        inv.bind(memory);
        const Clock::time_point t0 = Clock::now();
        (void)vm.run(memory);
        total_us += us_since(t0);
        ++runs;
      }
    }
    probes.vm_run_us = total_us / static_cast<double>(runs);
  }

  // sim: invoke() at -O3 on a cold backend (the calls that missed the
  // base-run table), then again on the same, now warm, backend.
  std::vector<double> noise_ratios;  // measured / noise-free time
  {
    sim::SimExecutionBackend backend(fn, traits, s.machine, effects,
                                     /*seed=*/7);
    const obs::Counter& misses = obs::counter("sim.base_cache.miss");
    double miss_us = 0.0;
    std::size_t miss_calls = 0;
    for (const sim::Invocation& inv : train.invocations) {
      const std::uint64_t before = misses.value();
      const Clock::time_point t0 = Clock::now();
      (void)backend.invoke(o3, inv);
      const double dt = us_since(t0);
      if (misses.value() > before) {
        miss_us += dt;
        ++miss_calls;
      }
    }
    double hit_us = 0.0;
    std::size_t hit_calls = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const sim::Invocation& inv : train.invocations) {
        const Clock::time_point t0 = Clock::now();
        const sim::InvocationResult r = backend.invoke(o3, inv);
        hit_us += us_since(t0);
        ++hit_calls;
        if (pass == 0)
          noise_ratios.push_back(r.time / backend.expected_time(o3, inv));
      }
    }
    probes.invoke_miss_us =
        miss_calls ? miss_us / static_cast<double>(miss_calls) : 0.0;
    probes.invoke_hit_us = hit_us / static_cast<double>(hit_calls);
  }

  {  // rating: a window fed the measurement noise of one context, reset
     // whenever the driver would have finished a rating
    rating::WindowedRater window;
    double total_us = 0.0;
    std::size_t adds = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (double sample : noise_ratios) {
        const Clock::time_point t0 = Clock::now();
        window.add(sample);
        const bool done = window.converged() || window.exhausted();
        total_us += us_since(t0);
        ++adds;
        if (done) window.reset();
      }
    }
    probes.window_add_us = total_us / static_cast<double>(adds);
  }

  {  // rating: MBR on the section's component model, rows from the
     // component-instrumented code at -O3
    const core::ProfileData profile =
        core::profile_workload(*s.workload, train, s.machine);
    const ir::Function instrumented =
        analysis::instrument_components(fn, profile.components);
    sim::SimExecutionBackend backend(instrumented, traits, s.machine,
                                     effects, /*seed=*/7);
    std::vector<std::pair<std::vector<double>, double>> rows;
    for (const sim::Invocation& inv : train.invocations) {
      const sim::InvocationResult r = backend.invoke(o3, inv);
      std::vector<double> counts(r.counters->begin(), r.counters->end());
      counts.push_back(1.0);  // constant component
      rows.emplace_back(std::move(counts), r.time);
    }
    rating::ModelBasedRater rater(profile.components.num_components(),
                                  profile.mbr_profile);
    double total_us = 0.0;
    std::size_t adds = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const auto& [counts, time] : rows) {
        const Clock::time_point t0 = Clock::now();
        rater.add(counts, time);
        const bool done = rater.rating().converged || rater.exhausted();
        total_us += us_since(t0);
        ++adds;
        if (done) rater.reset();
      }
    }
    probes.mbr_rating_us = total_us / static_cast<double>(adds);
  }

  {  // proc: fork two workers, run one trivial task on each, reap
    std::vector<double> rounds_ms;
    for (int round = 0; round < 5; ++round) {
      proc::SupervisorPolicy policy;
      policy.workers = 2;
      const Clock::time_point t0 = Clock::now();
      {
        proc::Supervisor supervisor(
            [](std::size_t task, std::size_t) { return std::to_string(task); },
            policy);
        const std::vector<proc::TaskOutcome> outs = supervisor.run(2);
        for (const proc::TaskOutcome& out : outs)
          if (!out.ok) throw std::runtime_error("proc probe task failed");
      }
      rounds_ms.push_back(us_since(t0) / 1000.0);
    }
    probes.proc_round_ms = median(rounds_ms);
  }
  return probes;
}

}  // namespace tunebench
