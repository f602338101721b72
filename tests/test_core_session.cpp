#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/peak.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "search/opt_config.hpp"
#include "workloads/workload.hpp"

namespace peak::core {
namespace {

/// Every fact a profile run observes (the static analyses read only the
/// IR), doubles as hex floats, so equal strings mean bit-equal facts.
std::string describe(const ProfileData& p) {
  std::string out;
  char buf[96];
  const auto put = [&out, &buf](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
  };
  put("contexts %zu invocations %zu constant %d cbr %d\n", p.num_contexts,
      p.invocations_per_run, p.array_contents_constant ? 1 : 0,
      p.cbr_applicable() ? 1 : 0);
  for (const auto& [var, bound] : p.param_bounds)
    put("bound %u [%a, %a]\n", static_cast<unsigned>(var), bound.lo,
        bound.hi);
  for (const analysis::CheckpointRegion& r : p.checkpoint_plan.regions)
    put("region %u %zu..%zu whole %d\n", static_cast<unsigned>(r.var), r.lo,
        r.hi, r.whole ? 1 : 0);
  for (const analysis::Component& c : p.components.varying) {
    put("component rep %u:", static_cast<unsigned>(c.representative));
    for (ir::BlockId b : c.blocks) put(" %u", static_cast<unsigned>(b));
    out += '\n';
  }
  out += "constant:";
  for (ir::BlockId b : p.components.constant_blocks)
    put(" %u", static_cast<unsigned>(b));
  put("\nmbr %d (%s)\n", p.components.mbr_applicable ? 1 : 0,
      p.components.failure_reason.c_str());
  for (double c : p.mbr_profile.c_avg) put("c_avg %a\n", c);
  put("dominant %zu\n", p.mbr_profile.dominant_component.value_or(~0UL));
  put("avg %a total %a\n", p.avg_invocation_cycles, p.run_total_cycles);
  for (rating::Method m : p.decision.chain)
    put("method %s\n", rating::to_string(m));
  out += p.decision.rationale;
  return out;
}

/// One profile run's facts and the simulated cycles it charged.
std::string profile_of(const workloads::Workload& workload,
                       const workloads::Trace& trace,
                       const sim::MachineModel& machine) {
  obs::Gauge& cycles = obs::gauge("profile.cycles");
  cycles.reset();
  std::string out = describe(profile_workload(workload, trace, machine));
  char buf[64];
  std::snprintf(buf, sizeof buf, "\ncycles %a", cycles.value());
  return out + buf;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& w : workloads::all_workloads())
    names.push_back(w->benchmark());
  return names;
}

class ProfileMemo : public ::testing::TestWithParam<std::string> {};

// The detailed pass reuses the run of an earlier invocation with the same
// context when the context determines the time. A copy of the trace that
// claims no such thing runs the VM for every invocation, so both must
// observe the same facts, bit for bit.
TEST_P(ProfileMemo, ReusedRunsObserveWhatFreshRunsDo) {
  for (const char* machine : {"sparc2", "p4"}) {
    const Session session(session_spec({}, GetParam(), machine));
    const workloads::Trace& trace = session.tune_trace();
    workloads::Trace unshared = trace;
    for (sim::Invocation& inv : unshared.invocations)
      inv.context_determines_time = false;
    EXPECT_EQ(profile_of(session.workload(), trace, session.machine()),
              profile_of(session.workload(), unshared, session.machine()))
        << machine;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTable1Sections, ProfileMemo,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

/// -O3, the baseline and four configs one flag away from -O3.
std::vector<search::FlagConfig> ref_configs(const Session& session) {
  const search::OptimizationSpace& space = session.effects().space();
  const search::FlagConfig o3 = search::o3_config(space);
  std::vector<search::FlagConfig> configs = {o3,
                                             search::baseline_config(space)};
  for (std::size_t flag : {0UL, 3UL, 7UL, space.size() - 1})
    configs.push_back(o3.with(flag, !o3.enabled(flag)));
  return configs;
}

// A Session prices every ref pass on one backend; each value must be the
// one a fresh backend per pass gives, whatever order they are asked in.
TEST(SessionRefPasses, MatchFreshBackendsInAnyOrder) {
  for (const char* name : {"SWIM", "ART", "MGRID"}) {
    const Session forward(session_spec({}, name, "p4"));
    const Session backward(session_spec({}, name, "p4"));
    const std::vector<search::FlagConfig> configs = ref_configs(forward);
    const auto fresh = [&forward](const search::FlagConfig& config) {
      return expected_trace_time(forward.workload(), forward.ref_trace(),
                                 forward.machine(), forward.effects(), config);
    };
    const double o3_time = fresh(configs.front());
    std::vector<double> expected;
    for (const search::FlagConfig& config : configs)
      expected.push_back((o3_time / fresh(config) - 1.0) * 100.0);

    for (std::size_t i = 0; i < configs.size(); ++i)
      EXPECT_EQ(forward.ref_improvement_pct(configs[i]), expected[i])
          << name << " config " << i;
    for (std::size_t i = configs.size(); i-- > 0;)
      EXPECT_EQ(backward.ref_improvement_pct(configs[i]), expected[i])
          << name << " config " << i;
  }
}

// Only the first pass computes base runs.
TEST(SessionRefPasses, LaterPassesRunNoBaseRun) {
  for (const char* name : {"SWIM", "ART"}) {
    const Session session(session_spec({}, name, "p4"));
    const std::vector<search::FlagConfig> configs = ref_configs(session);
    obs::Counter& misses = obs::counter("sim.base_cache.miss");
    obs::Counter& hits = obs::counter("sim.base_cache.hit");
    (void)session.ref_improvement_pct(configs[1]);
    const std::uint64_t missed = misses.value();
    const std::uint64_t hit = hits.value();
    (void)session.ref_improvement_pct(configs[2]);
    EXPECT_EQ(misses.value(), missed) << name;
    EXPECT_EQ(hits.value() - hit, session.ref_trace().invocations.size())
        << name;
  }
}

}  // namespace
}  // namespace peak::core
