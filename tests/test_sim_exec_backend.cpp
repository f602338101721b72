#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "sim/exec_backend.hpp"
#include "stats/descriptive.hpp"
#include "workloads/workload.hpp"

namespace peak::sim {
namespace {

class BackendTest : public ::testing::Test {
protected:
  BackendTest()
      : workload_(workloads::make_workload("SWIM")),
        machine_(sparc2()),
        effects_(search::gcc33_o3_space()),
        trace_(workload_->trace(workloads::DataSet::kTrain, 11)) {}

  std::unique_ptr<SimExecutionBackend> make_backend(std::uint64_t seed = 1) {
    auto backend = std::make_unique<SimExecutionBackend>(
        workload_->function(), workload_->traits(), machine_, effects_,
        seed);
    backend->set_checkpoint_bytes(8192, 2048);
    return backend;
  }

  std::unique_ptr<workloads::Workload> workload_;
  MachineModel machine_;
  FlagEffectModel effects_;
  workloads::Trace trace_;
};

TEST_F(BackendTest, ExpectedTimeIsDeterministicAndPositive) {
  auto backend = make_backend();
  const search::FlagConfig o3 = search::o3_config(effects_.space());
  const double t1 = backend->expected_time(o3, trace_.invocations[0]);
  const double t2 = backend->expected_time(o3, trace_.invocations[1]);
  EXPECT_GT(t1, 0.0);
  EXPECT_DOUBLE_EQ(t1, t2);  // same context, cached base run
}

TEST_F(BackendTest, InvokeTimesFluctuateAroundExpected) {
  auto backend = make_backend();
  const search::FlagConfig o3 = search::o3_config(effects_.space());
  const double expected =
      backend->expected_time(o3, trace_.invocations[0]);
  std::vector<double> times;
  for (int i = 0; i < 300; ++i)
    times.push_back(backend->invoke(o3, trace_.invocations[0]).time);
  const double m = stats::mean(times);
  // Cold-start warmth inflates every fresh-data execution a bit.
  EXPECT_GT(m, expected * 0.95);
  EXPECT_LT(m, expected * 1.45);
  EXPECT_GT(stats::stddev(times), 0.0);
}

TEST_F(BackendTest, FasterConfigGivesSmallerExpectedTime) {
  auto backend = make_backend();
  const auto& space = effects_.space();
  const search::FlagConfig o3 = search::o3_config(space);
  // SWIM story: -fschedule-insns hurts; removing it must speed things up.
  const search::FlagConfig better =
      o3.with(*space.index_of("-fschedule-insns"), false);
  EXPECT_LT(backend->expected_time(better, trace_.invocations[0]),
            backend->expected_time(o3, trace_.invocations[0]));
}

TEST_F(BackendTest, RbrPairSharesContext) {
  auto backend = make_backend();
  const search::FlagConfig o3 = search::o3_config(effects_.space());
  const RbrPairResult pair = backend->invoke_rbr_pair(
      o3, o3, trace_.invocations[0], RbrOptions{true});
  // Same version on both sides: ratio should be very close to 1.
  EXPECT_NEAR(pair.time_best / pair.time_exp, 1.0, 0.15);
  EXPECT_GT(pair.overhead, 0.0);
}

TEST_F(BackendTest, IrregularityCancelsInRbrButNotAcrossInvocations) {
  // Build two invocations with very different data-dependent speeds.
  sim::Invocation slow = trace_.invocations[0];
  slow.irregularity = 1.5;
  slow.context_determines_time = false;
  sim::Invocation fast = trace_.invocations[0];
  fast.irregularity = 0.7;
  fast.context_determines_time = false;

  auto backend = make_backend();
  const search::FlagConfig o3 = search::o3_config(effects_.space());

  // Across invocations (what AVG/CBR see): times differ a lot.
  const double t_slow = backend->invoke(o3, slow).time;
  const double t_fast = backend->invoke(o3, fast).time;
  EXPECT_GT(t_slow / t_fast, 1.5);

  // Within one invocation (what RBR sees): the factor divides out.
  std::vector<double> ratios;
  for (int i = 0; i < 50; ++i) {
    const RbrPairResult pair =
        backend->invoke_rbr_pair(o3, o3, slow, RbrOptions{true});
    ratios.push_back(pair.time_best / pair.time_exp);
  }
  EXPECT_NEAR(stats::mean(ratios), 1.0, 0.05);
}

TEST_F(BackendTest, BasicRbrIsBiasedByCacheWarmth) {
  // Fig. 3 vs Fig. 4: in the basic method version 1 runs cold and version
  // 2 warm, biasing the ratio above 1 even for identical versions. The
  // improved method removes the bias via preconditioning.
  const search::FlagConfig o3 = search::o3_config(effects_.space());

  auto biased = make_backend(21);
  std::vector<double> basic_ratios;
  for (int i = 0; i < 200; ++i) {
    const auto pair = biased->invoke_rbr_pair(
        o3, o3, trace_.invocations[0], RbrOptions{false});
    basic_ratios.push_back(pair.time_best / pair.time_exp);
  }

  auto fair = make_backend(21);
  std::vector<double> improved_ratios;
  for (int i = 0; i < 200; ++i) {
    const auto pair = fair->invoke_rbr_pair(
        o3, o3, trace_.invocations[0], RbrOptions{true});
    improved_ratios.push_back(pair.time_best / pair.time_exp);
  }

  const double basic_bias = stats::mean(basic_ratios) - 1.0;
  const double improved_bias =
      std::fabs(stats::mean(improved_ratios) - 1.0);
  EXPECT_GT(basic_bias, 0.05);  // v2 looks spuriously faster
  EXPECT_LT(improved_bias, basic_bias / 3.0);
}

TEST_F(BackendTest, AccumulatedTimeGrowsWithWork) {
  auto backend = make_backend();
  const search::FlagConfig o3 = search::o3_config(effects_.space());
  EXPECT_DOUBLE_EQ(backend->costs().accumulated, 0.0);
  backend->invoke(o3, trace_.invocations[0]);
  const double after_one = backend->costs().accumulated;
  EXPECT_GT(after_one, 0.0);
  backend->invoke_rbr_pair(o3, o3, trace_.invocations[0], RbrOptions{true});
  // The RBR pair costs much more than a plain invocation (precondition +
  // two timed runs + checkpoint traffic).
  EXPECT_GT(backend->costs().accumulated - after_one, 2.0 * after_one);
  backend->reset_costs();
  EXPECT_DOUBLE_EQ(backend->costs().accumulated, 0.0);
}

TEST_F(BackendTest, EnginesProduceBitIdenticalTimes) {
  // Same seed, same call sequence: the bytecode engine (default) and the
  // tree-walker must agree bitwise — base cycles feed multiplicative
  // noise, so even 1-ulp drift would change every sampled time.
  auto vm_backend = make_backend(77);
  auto tree_backend = make_backend(77);
  tree_backend->set_engine(ExecEngine::kTreeWalker);
  ASSERT_EQ(vm_backend->engine(), ExecEngine::kBytecode);

  const auto& space = effects_.space();
  const search::FlagConfig o3 = search::o3_config(space);
  const search::FlagConfig alt =
      o3.with(*space.index_of("-fschedule-insns"), false);

  for (std::size_t i = 0; i < 4 && i < trace_.invocations.size(); ++i) {
    const sim::Invocation& inv = trace_.invocations[i];
    for (const auto& cfg : {o3, alt}) {
      EXPECT_EQ(vm_backend->expected_time(cfg, inv),
                tree_backend->expected_time(cfg, inv));
      const InvocationResult a = vm_backend->invoke(cfg, inv);
      const InvocationResult b = tree_backend->invoke(cfg, inv);
      EXPECT_EQ(a.time, b.time);
      ASSERT_TRUE(a.counters && b.counters);
      EXPECT_EQ(*a.counters, *b.counters);
    }
  }
  EXPECT_EQ(vm_backend->costs().accumulated, tree_backend->costs().accumulated);
}

TEST_F(BackendTest, RepeatedInvocationsShareCountersStorage) {
  auto backend = make_backend();
  const search::FlagConfig o3 = search::o3_config(effects_.space());
  const InvocationResult a = backend->invoke(o3, trace_.invocations[0]);
  const InvocationResult b = backend->invoke(o3, trace_.invocations[0]);
  // Both results alias the cached base run's counter vector: no per-invoke
  // copy of the (potentially large) instrumentation array.
  EXPECT_EQ(a.counters.get(), b.counters.get());
}

TEST_F(BackendTest, BaseCacheObsCountersTrackHitsMissesUncacheable) {
  obs::Counter& hit = obs::counter("sim.base_cache.hit");
  obs::Counter& miss = obs::counter("sim.base_cache.miss");
  obs::Counter& uncacheable = obs::counter("sim.base_cache.uncacheable");

  auto backend = make_backend();
  const search::FlagConfig o3 = search::o3_config(effects_.space());

  const auto h0 = hit.value();
  const auto m0 = miss.value();
  backend->invoke(o3, trace_.invocations[0]);
  EXPECT_EQ(miss.value(), m0 + 1);  // first sight of this context
  backend->invoke(o3, trace_.invocations[0]);
  backend->expected_time(o3, trace_.invocations[0]);
  EXPECT_EQ(hit.value(), h0 + 2);
  EXPECT_EQ(miss.value(), m0 + 1);

  // id == 0 with data-dependent timing cannot be cached: every call
  // re-executes and says so.
  sim::Invocation oneshot = trace_.invocations[0];
  oneshot.id = 0;
  oneshot.context_determines_time = false;
  const auto u0 = uncacheable.value();
  backend->invoke(o3, oneshot);
  backend->invoke(o3, oneshot);
  EXPECT_EQ(uncacheable.value(), u0 + 2);
}

TEST(BackendTraces, Table1WorkloadInvocationsAreAlwaysCacheable) {
  // Guards the silent-recompute trap documented on base_run(): a trace
  // producer that leaves id == 0 on a data-dependent invocation makes
  // every rating run re-interpret the section. No shipped workload trace
  // may do that unintentionally.
  for (const auto& workload : workloads::all_workloads()) {
    const workloads::Trace trace =
        workload->trace(workloads::DataSet::kTrain, 3);
    for (const sim::Invocation& inv : trace.invocations) {
      EXPECT_TRUE(inv.context_determines_time || inv.id != 0)
          << workload->full_name() << " has an uncacheable invocation";
    }
  }
}

TEST_F(BackendTest, ImprovedRbrAlternatesOrder) {
  auto backend = make_backend();
  const search::FlagConfig o3 = search::o3_config(effects_.space());
  const auto a = backend->invoke_rbr_pair(o3, o3, trace_.invocations[0],
                                          RbrOptions{true});
  const auto b = backend->invoke_rbr_pair(o3, o3, trace_.invocations[0],
                                          RbrOptions{true});
  EXPECT_NE(a.swapped, b.swapped);
}

}  // namespace
}  // namespace peak::sim
