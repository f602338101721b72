#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "fault/guarded_executor.hpp"
#include "fault/injector.hpp"
#include "fault/quarantine.hpp"
#include "sim/exec_backend.hpp"
#include "workloads/workload.hpp"

namespace peak::fault {
namespace {

class GuardedTest : public ::testing::Test {
protected:
  GuardedTest()
      : workload_(workloads::make_workload("SWIM")),
        machine_(sim::sparc2()),
        effects_(search::gcc33_o3_space()),
        trace_(workload_->trace(workloads::DataSet::kTrain, 11)),
        o3_(search::o3_config(effects_.space())),
        exp_(search::o3_config(effects_.space())) {
    exp_.set(0, false);  // a distinct experimental version
  }

  std::unique_ptr<sim::SimExecutionBackend> make_backend(
      std::uint64_t seed = 1) {
    auto backend = std::make_unique<sim::SimExecutionBackend>(
        workload_->function(), workload_->traits(), machine_, effects_,
        seed);
    backend->set_checkpoint_bytes(8192, 2048);
    return backend;
  }

  /// Script `kind` for exp_ at the given invocation of the trace.
  FaultInjector scripted(FaultKind kind, std::size_t trace_index,
                         bool sticky) const {
    FaultInjector injector;
    ScriptedFault sf;
    sf.config_key = exp_.key();
    sf.invocation_id = trace_.invocations[trace_index].id;
    sf.kind = kind;
    sf.sticky = sticky;
    injector.script(sf);
    return injector;
  }

  std::unique_ptr<workloads::Workload> workload_;
  sim::MachineModel machine_;
  sim::FlagEffectModel effects_;
  workloads::Trace trace_;
  search::FlagConfig o3_;
  search::FlagConfig exp_;
};

TEST_F(GuardedTest, UnguardedHangThrowsHangFault) {
  auto backend = make_backend();
  const FaultInjector injector =
      scripted(FaultKind::kHang, 0, /*sticky=*/true);
  backend->set_fault_injector(&injector);
  // No deadline armed: the hang has infinite-loop semantics.
  EXPECT_THROW(backend->invoke(exp_, trace_.invocations[0]), HangFault);
}

TEST_F(GuardedTest, GuardedHangHitsDeadlineAndEventuallyQuarantines) {
  auto backend = make_backend();
  const FaultInjector injector =
      scripted(FaultKind::kHang, 0, /*sticky=*/true);
  backend->set_fault_injector(&injector);

  Quarantine quarantine;
  GuardedExecutor guard(*backend, quarantine);  // quarantine_after = 2
  guard.set_reference(o3_);
  std::vector<FaultEvent> events;
  guard.set_on_fault([&](const FaultEvent& ev) { events.push_back(ev); });

  const sim::Invocation& inv = trace_.invocations[0];
  const double deadline =
      guard.policy().deadline_factor * backend->expected_time(o3_, inv);

  // First failure: deadline paid, config not yet quarantined.
  try {
    guard.invoke(exp_, inv);
    FAIL() << "expected ConfigFailed";
  } catch (const ConfigFailed& e) {
    EXPECT_EQ(e.kind(), FaultKind::kHang);
    EXPECT_FALSE(e.quarantined());
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kHang);
  EXPECT_TRUE(events[0].gave_up);  // hangs are deterministic: no retry
  EXPECT_FALSE(events[0].quarantined);
  EXPECT_GE(backend->costs().faulted, deadline * 0.99);
  EXPECT_FALSE(quarantine.contains(exp_.key()));

  // Second failure crosses the threshold.
  try {
    guard.invoke(exp_, inv);
    FAIL() << "expected ConfigFailed";
  } catch (const ConfigFailed& e) {
    EXPECT_TRUE(e.quarantined());
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[1].quarantined);
  EXPECT_TRUE(quarantine.contains(exp_.key()));
  EXPECT_EQ(quarantine.kind_of(exp_.key()), FaultKind::kHang);

  // Quarantined configs are rejected without running anything.
  const double before = backend->costs().accumulated;
  EXPECT_THROW(guard.invoke(exp_, inv), ConfigFailed);
  EXPECT_EQ(backend->costs().accumulated, before);
  EXPECT_EQ(events.size(), 2u);
}

TEST_F(GuardedTest, TransientCrashIsRetriedWithBackoffAndSucceeds) {
  auto backend = make_backend();
  const FaultInjector injector =
      scripted(FaultKind::kCrash, 0, /*sticky=*/false);
  backend->set_fault_injector(&injector);

  Quarantine quarantine;
  GuardedExecutor guard(*backend, quarantine);
  guard.set_reference(o3_);
  std::vector<FaultEvent> events;
  guard.set_on_fault([&](const FaultEvent& ev) { events.push_back(ev); });

  const sim::InvocationResult r =
      guard.invoke(exp_, trace_.invocations[0]);
  EXPECT_TRUE(std::isfinite(r.time));
  EXPECT_GT(r.time, 0.0);

  // One transient failure, retried (not given up), not quarantined.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kCrash);
  EXPECT_FALSE(events[0].gave_up);
  EXPECT_FALSE(events[0].quarantined);
  EXPECT_FALSE(quarantine.contains(exp_.key()));
  // The partial crashed run was charged to the faulted phase, the
  // backoff wait before the re-measurement to the retry phase.
  EXPECT_GT(backend->costs().faulted, 0.0);
  EXPECT_GT(backend->costs().retry, 0.0);
}

TEST_F(GuardedTest, RetriedTransientFaultDoesNotSkewTheMeasurement) {
  // The fault path consumes no randomness, so the post-retry measurement
  // equals the fault-free one bit for bit.
  auto clean = make_backend(42);
  const double clean_time =
      clean->invoke(exp_, trace_.invocations[0]).time;

  auto faulty = make_backend(42);
  const FaultInjector injector =
      scripted(FaultKind::kCrash, 0, /*sticky=*/false);
  faulty->set_fault_injector(&injector);
  Quarantine quarantine;
  GuardedExecutor guard(*faulty, quarantine);
  guard.set_reference(o3_);
  EXPECT_EQ(guard.invoke(exp_, trace_.invocations[0]).time, clean_time);
}

TEST_F(GuardedTest, StickyTransientFaultExhaustsRetriesAndFails) {
  auto backend = make_backend();
  const FaultInjector injector =
      scripted(FaultKind::kCrash, 0, /*sticky=*/true);
  backend->set_fault_injector(&injector);

  Quarantine quarantine;
  GuardPolicy policy;
  policy.max_retries = 2;
  policy.quarantine_after = 3;
  GuardedExecutor guard(*backend, quarantine, policy);
  guard.set_reference(o3_);
  std::vector<FaultEvent> events;
  guard.set_on_fault([&](const FaultEvent& ev) { events.push_back(ev); });

  EXPECT_THROW(guard.invoke(exp_, trace_.invocations[0]), ConfigFailed);
  // 1 + max_retries attempts, each one a failure; only the last gave up.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_FALSE(events[0].gave_up);
  EXPECT_FALSE(events[1].gave_up);
  EXPECT_TRUE(events[2].gave_up);
  EXPECT_EQ(quarantine.failures_of(exp_.key()), 3u);
  EXPECT_TRUE(quarantine.contains(exp_.key()));
}

TEST_F(GuardedTest, MiscompileCorruptsDigestAndValidationQuarantines) {
  auto backend = make_backend();
  const FaultInjector injector =
      scripted(FaultKind::kMiscompile, 0, /*sticky=*/true);
  backend->set_fault_injector(&injector);
  const sim::Invocation& inv = trace_.invocations[0];

  // The miscompiled run completes and times normally...
  const sim::InvocationResult r = backend->invoke(exp_, inv);
  EXPECT_TRUE(std::isfinite(r.time));
  // ...but its output digest is wrong.
  EXPECT_NE(r.output_digest, backend->reference_digest(inv));
  // A healthy config's digest matches the reference.
  EXPECT_EQ(backend->invoke(o3_, inv).output_digest,
            backend->reference_digest(inv));

  Quarantine quarantine;
  GuardedExecutor guard(*backend, quarantine);
  guard.set_reference(o3_);
  try {
    guard.validate(exp_, inv);
    FAIL() << "expected ConfigFailed";
  } catch (const ConfigFailed& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMiscompile);
    EXPECT_TRUE(e.quarantined());  // immediate: wrong answers disqualify
  }
  EXPECT_TRUE(quarantine.contains(exp_.key()));
  EXPECT_EQ(quarantine.kind_of(exp_.key()), FaultKind::kMiscompile);
}

TEST_F(GuardedTest, ValidationPassesForCorrectConfigs) {
  auto backend = make_backend();
  Quarantine quarantine;
  GuardedExecutor guard(*backend, quarantine);
  guard.set_reference(o3_);
  EXPECT_NO_THROW(guard.validate(exp_, trace_.invocations[0]));
  EXPECT_FALSE(quarantine.contains(exp_.key()));
}

TEST_F(GuardedTest, TimerGlitchReportsInfinityUnguardedAndIsRetried) {
  {
    auto backend = make_backend();
    const FaultInjector injector =
        scripted(FaultKind::kTimerGlitch, 0, /*sticky=*/true);
    backend->set_fault_injector(&injector);
    // Unguarded, the absurd reading flows straight into the sample
    // stream (the rating window's non-finite guard must catch it).
    const sim::InvocationResult r =
        backend->invoke(exp_, trace_.invocations[0]);
    EXPECT_TRUE(std::isinf(r.time));
  }
  {
    auto backend = make_backend();
    const FaultInjector injector =
        scripted(FaultKind::kTimerGlitch, 0, /*sticky=*/false);
    backend->set_fault_injector(&injector);
    Quarantine quarantine;
    GuardedExecutor guard(*backend, quarantine);
    guard.set_reference(o3_);
    // Guarded, the glitch is discarded and the retry reads a sane timer.
    const sim::InvocationResult r =
        guard.invoke(exp_, trace_.invocations[0]);
    EXPECT_TRUE(std::isfinite(r.time));
  }
}

TEST_F(GuardedTest, CheckpointCorruptionFailsRbrBatchGuarded) {
  auto backend = make_backend();
  const FaultInjector injector =
      scripted(FaultKind::kCheckpointCorrupt, 0, /*sticky=*/true);
  backend->set_fault_injector(&injector);
  Quarantine quarantine;
  GuardedExecutor guard(*backend, quarantine);
  guard.set_reference(o3_);
  sim::RbrOptions opts;
  try {
    guard.invoke_rbr_batch(o3_, exp_, trace_.invocations[0], opts);
    FAIL() << "expected ConfigFailed";
  } catch (const ConfigFailed& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointCorrupt);
  }
  // The corrupt save was still paid for.
  EXPECT_GT(backend->costs().checkpoint, 0.0);
}

TEST_F(GuardedTest, GuardIsBitIdenticalToBareBackendWhenFaultFree) {
  auto bare = make_backend(7);
  auto wrapped = make_backend(7);
  Quarantine quarantine;
  GuardedExecutor guard(*wrapped, quarantine);
  guard.set_reference(o3_);
  for (std::size_t i = 0; i < 20 && i < trace_.invocations.size(); ++i) {
    const sim::Invocation& inv = trace_.invocations[i];
    EXPECT_EQ(bare->invoke(exp_, inv).time, guard.invoke(exp_, inv).time);
  }
  EXPECT_EQ(bare->costs().accumulated, wrapped->costs().accumulated);
}

}  // namespace
}  // namespace peak::fault
