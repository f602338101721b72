#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/profile.hpp"
#include "core/rating_cache.hpp"
#include "core/tuning_driver.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "proc/worker_table.hpp"
#include "support/shutdown.hpp"
#include "workloads/workload.hpp"

namespace peak::core {
namespace {

/// Rates two probe rounds of four single-flag flips against the start
/// config and calls `between` after the first; every R lands in the
/// result's events, so the TuningOutcome carries each rating bit-exactly.
class TwoRounds : public search::SearchAlgorithm {
public:
  explicit TwoRounds(std::function<void()> between)
      : between_(std::move(between)) {}

  search::SearchResult run(const search::OptimizationSpace&,
                           search::ConfigEvaluator& evaluator,
                           const search::FlagConfig& start) override {
    search::SearchResult result;
    result.best = start;
    for (std::size_t round = 0; round < 2; ++round) {
      if (round == 1) between_();
      std::vector<search::FlagConfig> candidates;
      for (std::size_t f = 4 * round; f < 4 * round + 4; ++f)
        candidates.push_back(start.with(f, !start.enabled(f)));
      for (double r : evaluator.rate_batch(start, candidates)) {
        search::SearchEvent ev;
        ev.round = round;
        ev.ratio = r;
        result.events.push_back(ev);
        ++result.configs_evaluated;
      }
    }
    return result;
  }
  [[nodiscard]] std::string name() const override { return "two-rounds"; }

private:
  std::function<void()> between_;
};

/// True when `pid`, once a child of this process, has been reaped.
bool reaped(pid_t pid) {
  return ::waitpid(pid, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

/// Acceptance tests of the out-of-process rating sandbox: for every
/// --isolate-workers N >= 1 the TuningOutcome and journal bytes must be
/// bit-identical to the in-process batch path — including when workers
/// are killed by real signals or abort()ing injected faults mid-round.
class ProcDriverTest : public ::testing::Test {
protected:
  ProcDriverTest()
      : machine_(sim::sparc2()), effects_(search::gcc33_o3_space()) {}

  struct Setup {
    std::unique_ptr<workloads::Workload> workload;
    workloads::Trace train;
    ProfileData profile;
  };

  Setup setup(const std::string& name) {
    Setup s;
    s.workload = workloads::make_workload(name);
    s.train = s.workload->trace(workloads::DataSet::kTrain, 42);
    s.profile = profile_workload(*s.workload, s.train, machine_);
    return s;
  }

  TuningOutcome tune(const Setup& s, const DriverOptions& options,
                     rating::Method method) {
    TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                        effects_, options);
    return driver.tune(method);
  }

  fault::FaultInjector sweep_injector(std::uint64_t seed) const {
    fault::FaultModel model;
    model.fault_prob = 0.05;
    model.seed = seed;
    fault::FaultInjector injector(model);
    injector.exempt(search::o3_config(effects_.space()));
    return injector;
  }

  /// 8% of configs abort() their process on every invocation.
  fault::FaultInjector hard_crash_injector() const {
    fault::FaultModel model;
    model.fault_prob = 0.08;
    model.crash_weight = 0.0;
    model.hang_weight = 0.0;
    model.miscompile_weight = 0.0;
    model.glitch_weight = 0.0;
    model.checkpoint_weight = 0.0;
    model.hard_crash_weight = 1.0;
    model.deterministic_fraction = 1.0;
    model.seed = 7;
    fault::FaultInjector injector(model);
    injector.exempt(search::o3_config(effects_.space()));
    return injector;
  }

  /// Non-sticky hard crashes scripted against the first config Iterative
  /// Elimination probes, spread over the trace so RBR's pair sampling is
  /// guaranteed to hit at least one site (same recipe as the crash-sweep
  /// bench): the worker rating it abort()s once, the retry clears.
  fault::FaultInjector transient_crash_injector(const Setup& s) const {
    fault::FaultInjector injector;
    search::FlagConfig probed = search::o3_config(effects_.space());
    probed.set(0, false);
    const std::size_t n = s.train.invocations.size();
    for (std::size_t k = 0; k < 16; ++k) {
      fault::ScriptedFault sf;
      sf.config_key = probed.key();
      sf.invocation_id = s.train.invocations[k * n / 16].id;
      sf.kind = fault::FaultKind::kHardCrash;
      sf.sticky = false;
      injector.script(sf);
    }
    return injector;
  }

  static std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  static std::uint64_t counter(const std::string& name) {
    return obs::counter(name).value();
  }

  sim::MachineModel machine_;
  sim::FlagEffectModel effects_;
};

TEST_F(ProcDriverTest, IsolatedOutcomeBitIdenticalToSerialAcrossSeeds) {
  Setup s = setup("SWIM");
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DriverOptions serial;
    serial.seed = seed;
    serial.search_threads = 1;
    const TuningOutcome one = tune(s, serial, rating::Method::kCBR);

    DriverOptions isolated;
    isolated.seed = seed;
    isolated.isolate_workers = 4;
    EXPECT_EQ(tune(s, isolated, rating::Method::kCBR), one);
  }
}

TEST_F(ProcDriverTest, IsolatedOutcomeIdenticalForRbrAndOddWorkerCounts) {
  Setup s = setup("ART");
  DriverOptions serial;
  serial.search_threads = 1;
  const TuningOutcome one = tune(s, serial, rating::Method::kRBR);
  for (unsigned workers : {1u, 3u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    DriverOptions isolated;
    isolated.isolate_workers = workers;
    EXPECT_EQ(tune(s, isolated, rating::Method::kRBR), one);
  }
}

TEST_F(ProcDriverTest, IsolatedMatchesThreadedNotJustSerial) {
  Setup s = setup("SWIM");
  DriverOptions threaded;
  threaded.search_threads = 4;
  const TuningOutcome four = tune(s, threaded, rating::Method::kRBR);

  DriverOptions isolated;
  isolated.isolate_workers = 4;
  EXPECT_EQ(tune(s, isolated, rating::Method::kRBR), four);
}

TEST_F(ProcDriverTest, IsolatedJournalBytesIdenticalToThreaded) {
  Setup s = setup("SWIM");
  DriverOptions threaded;
  threaded.search_threads = 4;
  threaded.fault.journal_path = temp_path("peak_proc_journal_t4.jsonl");
  const TuningOutcome four = tune(s, threaded, rating::Method::kCBR);

  DriverOptions isolated;
  isolated.isolate_workers = 4;
  isolated.fault.journal_path = temp_path("peak_proc_journal_w4.jsonl");
  EXPECT_EQ(tune(s, isolated, rating::Method::kCBR), four);

  const std::string a = slurp(threaded.fault.journal_path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(isolated.fault.journal_path));
}

TEST_F(ProcDriverTest, IsolatedOutcomeIdenticalUnderStochasticFaults) {
  Setup s = setup("SWIM");
  const fault::FaultInjector injector = sweep_injector(0xfaU);
  DriverOptions serial;
  serial.search_threads = 1;
  serial.fault.injector = &injector;
  TuningDriver one_driver(*s.workload, s.profile, s.train, machine_,
                          effects_, serial);
  const TuningOutcome one = one_driver.tune(rating::Method::kCBR);

  DriverOptions isolated = serial;
  isolated.isolate_workers = 4;
  TuningDriver iso_driver(*s.workload, s.profile, s.train, machine_,
                          effects_, isolated);
  EXPECT_EQ(iso_driver.tune(rating::Method::kCBR), one);

  // Quarantine verdicts (which configs, what kind, how many failures)
  // must also be process-isolation-invariant.
  const auto& a = one_driver.quarantine().entries();
  const auto& b = iso_driver.quarantine().entries();
  ASSERT_EQ(b.size(), a.size());
  for (const auto& [key, entry] : a) {
    const auto it = b.find(key);
    ASSERT_NE(it, b.end()) << key;
    EXPECT_EQ(it->second.kind, entry.kind) << key;
    EXPECT_EQ(it->second.failures, entry.failures) << key;
    EXPECT_EQ(it->second.quarantined, entry.quarantined) << key;
  }
}

TEST_F(ProcDriverTest, EachQuarantineIsCountedOnceOnEveryTransport) {
  // A member's own registry records its quarantines uncounted; the merge
  // counts each once, whether the member rated in a thread or a child.
  Setup s = setup("SWIM");
  const fault::FaultInjector injector = sweep_injector(0xfaU);
  obs::Counter& quarantined = obs::counter("fault.quarantined");
  for (std::size_t workers : {0, 2}) {
    DriverOptions options;
    options.fault.injector = &injector;
    options.isolate_workers = workers;
    TuningDriver driver(*s.workload, s.profile, s.train, machine_, effects_,
                        options);
    const std::uint64_t before = quarantined.value();
    (void)driver.tune(rating::Method::kCBR);
    EXPECT_GT(driver.quarantine().size(), 0u) << workers << " workers";
    EXPECT_EQ(quarantined.value() - before, driver.quarantine().size())
        << workers << " workers";
  }
}

TEST_F(ProcDriverTest, SurvivedTransientHardCrashLeavesNoTrace) {
  Setup s = setup("SWIM");
  // Crash-free comparator with the same guarded-rating wiring: an
  // injector that never fires. (A null injector would skip the guarded
  // executor entirely and change cost accounting.)
  const fault::FaultInjector inert;
  DriverOptions plain;
  plain.search_threads = 4;
  plain.fault.injector = &inert;
  const TuningOutcome baseline = tune(s, plain, rating::Method::kRBR);

  const fault::FaultInjector crasher = transient_crash_injector(s);
  DriverOptions isolated;
  isolated.isolate_workers = 4;
  isolated.fault.injector = &crasher;
  TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                      effects_, isolated);
  const std::uint64_t before = counter("proc.workers.respawned");
  const TuningOutcome outcome = driver.tune(rating::Method::kRBR);

  // Real abort()s happened (a worker died and was re-forked)...
  EXPECT_GE(counter("proc.workers.respawned"), before + 1);
  // ...and yet nothing distinguishes the outcome from a crash-free run:
  // not the winner, not the cost, not the event stream, and nothing was
  // quarantined or journaled about the crash.
  EXPECT_EQ(outcome, baseline);
  EXPECT_TRUE(driver.quarantine().entries().empty());
}

TEST_F(ProcDriverTest, DeterministicHardCrashersAreQuarantined) {
  Setup s = setup("SWIM");
  const fault::FaultInjector injector = hard_crash_injector();
  DriverOptions isolated;
  isolated.isolate_workers = 2;
  isolated.fault.injector = &injector;
  TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                      effects_, isolated);
  // Every faulty config abort()s on every attempt: the run must still
  // complete, with the crashers identified and quarantined.
  const TuningOutcome outcome = driver.tune(rating::Method::kRBR);
  EXPECT_FALSE(outcome.best_config.key().empty());
  EXPECT_GE(driver.quarantine().entries().size(), 1u);
}

TEST_F(ProcDriverTest, CrasherVerdictsAreJournaledButNeverCached) {
  // A rating whose worker process dies on every attempt gets a delta the
  // driver synthesizes from the transport's verdict (attempt count, exit
  // class), not a rating: the journal records it, so a resume merges it
  // again without rating anything, but the rating cache must not serve
  // it to later runs. A warm rerun re-rates the crashers and still lands
  // on the cold outcome.
  Setup s = setup("SWIM");
  const fault::FaultInjector injector = hard_crash_injector();
  const std::string cache_path = temp_path("peak_proc_crash_cache.jsonl");
  DriverOptions options;
  options.isolate_workers = 2;
  options.fault.injector = &injector;
  options.fault.journal_path = temp_path("peak_proc_crash_journal.jsonl");
  TuningOutcome cold;
  std::vector<std::string> crashers;
  {
    RatingCache cache(cache_path);
    options.rating_cache = &cache;
    TuningDriver driver(*s.workload, s.profile, s.train, machine_, effects_,
                        options);
    cold = driver.tune(rating::Method::kRBR);
    for (const auto& [key, entry] : driver.quarantine().entries())
      if (entry.kind == fault::FaultKind::kHardCrash) crashers.push_back(key);
  }
  ASSERT_FALSE(crashers.empty());
  const std::string journal = slurp(options.fault.journal_path);
  const std::string cached = slurp(cache_path);
  for (const std::string& key : crashers) {
    const std::string verdict =
        "{\"k\":\"" + key + "\",\"kind\":\"hard-crash\"";
    EXPECT_NE(journal.find(verdict), std::string::npos) << key;
    EXPECT_EQ(cached.find(verdict), std::string::npos) << key;
  }

  // A resume replays the crashers' verdicts with everything else.
  DriverOptions resume = options;
  resume.rating_cache = nullptr;
  resume.fault.resume = true;
  const std::uint64_t replayed = counter("journal.replayed");
  const std::uint64_t missed = counter("journal.miss");
  EXPECT_EQ(tune(s, resume, rating::Method::kRBR), cold);
  EXPECT_GT(counter("journal.replayed"), replayed);
  EXPECT_EQ(counter("journal.miss"), missed);

  RatingCache warm(cache_path);
  options.rating_cache = &warm;
  options.fault.journal_path.clear();
  const std::uint64_t hits = counter("search.cache.hit");
  EXPECT_EQ(tune(s, options, rating::Method::kRBR), cold);
  EXPECT_GT(counter("search.cache.hit"), hits);
}

TEST_F(ProcDriverTest, SigkilledWorkersMidRoundStillBitIdentical) {
  Setup s = setup("SWIM");
  DriverOptions threaded;
  threaded.search_threads = 4;
  const TuningOutcome baseline = tune(s, threaded, rating::Method::kRBR);

  // While the isolated run is underway, snipe up to two live workers
  // with real SIGKILLs. Two stays under the per-task attempt budget, so
  // every lost task is requeued as transient and the outcome must be
  // bit-identical to the unharmed run.
  // The sniper is detached and fulfils a future instead of being joined:
  // to ThreadSanitizer, a thread not yet joined when the supervisor forks
  // is a thread every forked worker leaks.
  std::atomic<bool> done{false};
  std::atomic<int> kills{0};
  std::promise<void> stopped;
  std::future<void> sniper = stopped.get_future();
  std::thread([&done, &kills, stopped = std::move(stopped)]() mutable {
    while (!done.load() && kills.load() < 2) {
      const std::vector<pid_t> pids = proc::WorkerTable::global().live_pids();
      if (!pids.empty() && ::kill(pids.front(), SIGKILL) == 0) ++kills;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stopped.set_value();
  }).detach();

  DriverOptions isolated;
  isolated.isolate_workers = 4;
  const std::uint64_t respawned = counter("proc.workers.respawned");
  const std::uint64_t retried = counter("proc.tasks.retried");
  const std::uint64_t failed = counter("proc.tasks.failed");
  const TuningOutcome outcome = tune(s, isolated, rating::Method::kRBR);
  done = true;
  sniper.get();

  EXPECT_EQ(outcome, baseline);
  // A kill need not cost a respawn: a worker shot after its last result
  // holds no task and is not replaced. But every retried task ran on a
  // refilled slot, and two kills stay under the three-attempt budget.
  EXPECT_LE(counter("proc.tasks.retried") - retried,
            counter("proc.workers.respawned") - respawned);
  EXPECT_EQ(counter("proc.tasks.failed"), failed);
}

TEST_F(ProcDriverTest, WorkerTablePublishesFleetState) {
  Setup s = setup("SWIM");
  DriverOptions isolated;
  isolated.isolate_workers = 3;
  (void)tune(s, isolated, rating::Method::kCBR);

  // After the run the table still shows the last round's fleet (all
  // retired; a round never spawns more slots than it has tasks), and its
  // JSON document carries one row per slot.
  const auto rows = proc::WorkerTable::global().snapshot();
  ASSERT_GE(rows.size(), 1u);
  ASSERT_LE(rows.size(), 3u);
  for (const auto& row : rows) EXPECT_EQ(row.state, "done");
  const std::string json = proc::WorkerTable::global().json();
  EXPECT_NE(json.find("\"workers\":["), std::string::npos);
  EXPECT_NE(json.find("\"tasks_done\":"), std::string::npos);
}

TEST_F(ProcDriverTest, ForksAtMostIsolateWorkersPerTune) {
  // Workers live for one tune(method): every round after the first
  // reuses them, so a fault-free tune forks no more than N.
  Setup s = setup("SWIM");
  for (unsigned workers : {2u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    DriverOptions threaded;
    threaded.search_threads = workers;
    const TuningOutcome baseline = tune(s, threaded, rating::Method::kCBR);

    DriverOptions isolated;
    isolated.isolate_workers = workers;
    const std::uint64_t spawned = counter("proc.workers.spawned");
    EXPECT_EQ(tune(s, isolated, rating::Method::kCBR), baseline);
    EXPECT_GE(counter("proc.workers.spawned") - spawned, 1u);
    EXPECT_LE(counter("proc.workers.spawned") - spawned, workers);
  }
}

TEST_F(ProcDriverTest, WorkerKilledWhileIdleIsReplacedWithoutACharge) {
  Setup s = setup("SWIM");
  DriverOptions threaded;
  threaded.search_threads = 2;
  threaded.search_algorithm = std::make_shared<TwoRounds>([] {});
  const TuningOutcome baseline = tune(s, threaded, rating::Method::kCBR);

  // Between the rounds both workers idle; one dies by SIGKILL, and the
  // test waits until it is a zombie without reaping it, so the second
  // round finds it dead before dispatching to it.
  int kills = 0;
  DriverOptions isolated;
  isolated.isolate_workers = 2;
  isolated.search_algorithm = std::make_shared<TwoRounds>([&kills] {
    const std::vector<pid_t> pids = proc::WorkerTable::global().live_pids();
    ASSERT_EQ(pids.size(), 2u);
    ASSERT_EQ(::kill(pids.front(), SIGKILL), 0);
    siginfo_t info{};
    ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(pids.front()), &info,
                       WEXITED | WNOWAIT),
              0);
    ++kills;
  });
  const std::uint64_t spawned = counter("proc.workers.spawned");
  const std::uint64_t respawned = counter("proc.workers.respawned");
  const std::uint64_t retried = counter("proc.tasks.retried");
  EXPECT_EQ(tune(s, isolated, rating::Method::kCBR), baseline);
  EXPECT_EQ(kills, 1);
  EXPECT_EQ(counter("proc.workers.spawned") - spawned, 3u);
  EXPECT_EQ(counter("proc.workers.respawned") - respawned, 1u);
  EXPECT_EQ(counter("proc.tasks.retried"), retried);
}

TEST_F(ProcDriverTest, NoWorkerOutlivesItsTune) {
  Setup s = setup("SWIM");
  std::vector<pid_t> pids;
  const auto record = [&pids] {
    for (pid_t pid : proc::WorkerTable::global().live_pids())
      pids.push_back(pid);
  };
  DriverOptions isolated;
  isolated.isolate_workers = 2;
  isolated.search_algorithm = std::make_shared<TwoRounds>(record);
  (void)tune(s, isolated, rating::Method::kCBR);
  ASSERT_EQ(pids.size(), 2u);
  for (pid_t pid : pids) EXPECT_TRUE(reaped(pid)) << pid;

  // A shutdown request between rounds unwinds the tune, and the workers
  // are retired on the way out.
  pids.clear();
  support::reset_shutdown();
  isolated.search_algorithm = std::make_shared<TwoRounds>([&] {
    record();
    support::request_shutdown();
  });
  EXPECT_THROW((void)tune(s, isolated, rating::Method::kCBR),
               support::ShutdownRequested);
  support::reset_shutdown();
  ASSERT_EQ(pids.size(), 2u);
  for (pid_t pid : pids) EXPECT_TRUE(reaped(pid)) << pid;
}

}  // namespace
}  // namespace peak::core
