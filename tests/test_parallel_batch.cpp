#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "core/rating_cache.hpp"
#include "core/tuning_driver.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "search/combined_elimination.hpp"
#include "search/simple_searches.hpp"
#include "support/check.hpp"
#include "workloads/workload.hpp"

namespace peak::core {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

std::uint64_t counter(const std::string& name) {
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// A fresh algorithm per tune: RandomSearch advances its own generator.
std::shared_ptr<search::SearchAlgorithm> make_search(
    const std::string& name) {
  if (name == "BE") return std::make_shared<search::BatchElimination>();
  if (name == "CE") return std::make_shared<search::CombinedElimination>();
  if (name == "FS")
    return std::make_shared<search::FactorialScreening>(
        search::FactorialScreeningOptions{.runs = 48});
  if (name == "RS") return std::make_shared<search::RandomSearch>(40, 7);
  if (name == "GC") return std::make_shared<search::GreedyConstruction>();
  return nullptr;  // IE, the driver's default
}

/// Acceptance tests of batched evaluation: for every search_threads
/// N >= 1 the TuningOutcome (winner, ratings, event stream), the journal
/// bytes, and crash-safe resume must be bit-identical to the N = 1 batch
/// path — with and without fault injection — and a warm persistent
/// rating cache must reproduce the outcome from disk.
class ParallelBatchTest : public ::testing::Test {
protected:
  ParallelBatchTest()
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

  TuningOutcome tune(const Setup& s, DriverOptions options,
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

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  sim::MachineModel machine_;
  sim::FlagEffectModel effects_;
};

TEST_F(ParallelBatchTest, OutcomeBitIdenticalAcrossThreadCountsTenSeeds) {
  Setup s = setup("SWIM");
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DriverOptions serial;
    serial.seed = seed;
    serial.search_threads = 1;
    const TuningOutcome one = tune(s, serial, rating::Method::kCBR);

    DriverOptions parallel = serial;
    parallel.search_threads = 4;
    EXPECT_EQ(tune(s, parallel, rating::Method::kCBR), one);
  }
}

TEST_F(ParallelBatchTest, OutcomeBitIdenticalForRbrAndOddThreadCounts) {
  Setup s = setup("ART");
  DriverOptions serial;
  serial.search_threads = 1;
  const TuningOutcome one = tune(s, serial, rating::Method::kRBR);
  for (unsigned threads : {2u, 3u, 7u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    DriverOptions parallel = serial;
    parallel.search_threads = threads;
    EXPECT_EQ(tune(s, parallel, rating::Method::kRBR), one);
  }
  // Zero threads is not a thread count: the driver refuses it.
  DriverOptions none = serial;
  none.search_threads = 0;
  EXPECT_THROW(tune(s, none, rating::Method::kRBR), support::CheckError);
}

TEST_F(ParallelBatchTest, OutcomeBitIdenticalUnderFaultInjection) {
  Setup s = setup("SWIM");
  for (std::uint64_t seed : {0xfaUL, 0xfbUL, 0xfcUL}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const fault::FaultInjector injector = sweep_injector(seed);
    DriverOptions serial;
    serial.search_threads = 1;
    serial.fault.injector = &injector;

    TuningDriver one_driver(*s.workload, s.profile, s.train, machine_,
                            effects_, serial);
    const TuningOutcome one = one_driver.tune(rating::Method::kCBR);

    DriverOptions parallel = serial;
    parallel.search_threads = 4;
    TuningDriver four_driver(*s.workload, s.profile, s.train, machine_,
                             effects_, parallel);
    EXPECT_EQ(four_driver.tune(rating::Method::kCBR), one);

    const auto& a = one_driver.quarantine().entries();
    const auto& b = four_driver.quarantine().entries();
    ASSERT_EQ(b.size(), a.size());
    for (const auto& [key, entry] : a) {
      const auto it = b.find(key);
      ASSERT_NE(it, b.end()) << key;
      EXPECT_EQ(it->second.kind, entry.kind) << key;
      EXPECT_EQ(it->second.failures, entry.failures) << key;
      EXPECT_EQ(it->second.quarantined, entry.quarantined) << key;
    }
  }
}

TEST_F(ParallelBatchTest, CombinedEliminationIdenticalAcrossThreadCounts) {
  Setup s = setup("SWIM");
  DriverOptions serial;
  serial.search_threads = 1;
  serial.search_algorithm = std::make_shared<search::CombinedElimination>();
  const TuningOutcome one = tune(s, serial, rating::Method::kCBR);

  DriverOptions parallel = serial;
  parallel.search_threads = 4;
  EXPECT_EQ(tune(s, parallel, rating::Method::kCBR), one);
}

TEST_F(ParallelBatchTest, JournalBytesIdenticalAcrossThreadCounts) {
  Setup s = setup("SWIM");
  DriverOptions serial;
  serial.search_threads = 1;
  serial.fault.journal_path = temp_path("peak_batch_journal_t1.jsonl");
  const TuningOutcome one = tune(s, serial, rating::Method::kCBR);

  DriverOptions parallel;
  parallel.search_threads = 4;
  parallel.fault.journal_path = temp_path("peak_batch_journal_t4.jsonl");
  EXPECT_EQ(tune(s, parallel, rating::Method::kCBR), one);

  const std::string a = slurp(serial.fault.journal_path);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(parallel.fault.journal_path));
}

TEST_F(ParallelBatchTest, ResumeTruncatedJournalAcrossThreadCounts) {
  // A run journaled at 4 threads and killed after any record must resume
  // to the bit-identical outcome at 1 thread and at 4: the journal holds
  // each merged rating delta under its member's key, not a schedule, and
  // a resumed member that finds its key merges the recorded delta
  // exactly as the live run did. The fault-free CBR run records each
  // batch's prologue as a record of its own; the injector runs add
  // quarantine counts and fault events to the deltas. BE and CE under
  // RBR end by validating (start, best), which repeats a round-0 probe
  // pair when `best` drops one flag: only the quarantine entries and the
  // validation verdict in the key keep that member from replaying round
  // 0's delta.
  Setup s = setup("SWIM");
  const fault::FaultInjector injector = sweep_injector(0xfaU);
  struct Run {
    const char* name;
    rating::Method method;
    const fault::FaultInjector* injector;
    const char* search;
  };
  for (const Run& run :
       {Run{"cbr", rating::Method::kCBR, nullptr, "IE"},
        Run{"cbr_faults", rating::Method::kCBR, &injector, "IE"},
        Run{"rbr_faults", rating::Method::kRBR, &injector, "IE"},
        Run{"be_rbr_faults", rating::Method::kRBR, &injector, "BE"},
        Run{"ce_rbr_faults", rating::Method::kRBR, &injector, "CE"}}) {
    SCOPED_TRACE(run.name);
    const std::string path = temp_path(
        std::string("peak_batch_journal_cut_src_") + run.name + ".jsonl");
    DriverOptions options;
    options.search_threads = 4;
    options.search_algorithm = make_search(run.search);
    options.fault.injector = run.injector;
    options.fault.journal_path = path;
    const TuningOutcome original = tune(s, options, run.method);

    std::vector<std::string> lines;
    {
      std::ifstream in(path);
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 4u);
    for (std::size_t keep = 1; keep <= lines.size(); ++keep) {
      for (unsigned resume_threads : {1u, 4u}) {
        SCOPED_TRACE("records " + std::to_string(keep) + ", resume threads " +
                     std::to_string(resume_threads));
        const std::string cut = temp_path("peak_batch_journal_cut.jsonl");
        {
          std::ofstream out(cut, std::ios::binary);
          for (std::size_t i = 0; i < keep; ++i) out << lines[i] << '\n';
          out << R"({"type":"rating","key":"dead)";  // partial trailing line
        }
        DriverOptions resume_options = options;
        resume_options.search_threads = resume_threads;
        resume_options.search_algorithm = make_search(run.search);
        resume_options.fault.journal_path = cut;
        resume_options.fault.resume = true;
        ASSERT_EQ(tune(s, resume_options, run.method), original);
      }
    }
  }
}

/// One rating-cache identity scenario: a search over the 38-flag space
/// (ExhaustiveSearch refuses spaces over 16 bits), tuning one benchmark
/// on one machine with one run seed, from train trace 42.
struct CacheScenario {
  const char* search;  ///< IE, BE, CE, FS, RS or GC
  const char* benchmark;
  const char* machine;  ///< sparc2 | p4
  std::uint64_t seed;
};

std::string scenario_name(const CacheScenario& c) {
  return std::string(c.search) + "_" + c.benchmark + "_" + c.machine +
         "_s" + std::to_string(c.seed);
}

/// Test names carry the parameter's printout, so it must not be bytes.
void PrintTo(const CacheScenario& c, std::ostream* os) {
  *os << scenario_name(c);
}

class CacheIdentity : public ::testing::TestWithParam<CacheScenario> {};

/// A cache hit may change where a rating comes from, never what it is:
/// under every search, a cold and a warm cache reproduce the uncached
/// tune_auto() bit for bit, and the warm rerun finds every rating. BE and
/// CE end by validating (start, best). When `best` drops one flag, that
/// pair repeats a round-0 probe, but with both EVALs memoized by then: a
/// different task, so a different cache key.
TEST_P(CacheIdentity, ColdAndWarmMatchUncached) {
  const CacheScenario& c = GetParam();
  const auto workload = workloads::make_workload(c.benchmark);
  const sim::MachineModel machine = std::string(c.machine) == "p4"
                                        ? sim::pentium4()
                                        : sim::sparc2();
  const sim::FlagEffectModel effects(search::gcc33_o3_space());
  const workloads::Trace train =
      workload->trace(workloads::DataSet::kTrain, 42);
  const ProfileData profile = profile_workload(*workload, train, machine);
  const auto tune_auto = [&](unsigned threads, RatingCache* cache) {
    DriverOptions options;
    options.seed = c.seed;
    options.search_threads = threads;
    options.search_algorithm = make_search(c.search);
    options.rating_cache = cache;
    TuningDriver driver(*workload, profile, train, machine, effects,
                        options);
    return driver.tune_auto();
  };
  for (unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("search_threads " + std::to_string(threads));
    const TuningOutcome plain = tune_auto(threads, nullptr);

    const std::string path = temp_path("peak_cache_identity_" +
                                       scenario_name(c) + "_t" +
                                       std::to_string(threads) + ".jsonl");
    RatingCache cold_cache(path);
    const std::uint64_t stores = counter("search.cache.store");
    EXPECT_EQ(tune_auto(threads, &cold_cache), plain);
    EXPECT_GT(counter("search.cache.store"), stores);

    // Fresh cache object, same file: everything replays from disk.
    RatingCache warm_cache(path);
    EXPECT_EQ(warm_cache.size(), cold_cache.size());
    const std::uint64_t hits = counter("search.cache.hit");
    const std::uint64_t misses = counter("search.cache.miss");
    EXPECT_EQ(tune_auto(threads, &warm_cache), plain);
    EXPECT_GT(counter("search.cache.hit"), hits);
    EXPECT_EQ(counter("search.cache.miss"), misses);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Searches, CacheIdentity,
    ::testing::Values(CacheScenario{"IE", "SWIM", "sparc2", 1},
                      CacheScenario{"BE", "SWIM", "sparc2", 1},
                      CacheScenario{"CE", "SWIM", "sparc2", 1},
                      CacheScenario{"FS", "SWIM", "sparc2", 1},
                      CacheScenario{"RS", "SWIM", "sparc2", 1},
                      CacheScenario{"GC", "SWIM", "sparc2", 1},
                      CacheScenario{"CE", "WUPWISE", "sparc2", 1},
                      CacheScenario{"CE", "APPLU", "p4", 2},
                      CacheScenario{"BE", "APSI", "sparc2", 1},
                      CacheScenario{"BE", "WUPWISE", "p4", 2}),
    [](const auto& info) { return scenario_name(info.param); });

TEST_F(ParallelBatchTest, CacheKeySeparatesSeedsAndMethods) {
  Setup s = setup("SWIM");
  const std::string path = temp_path("peak_rating_cache_keys.jsonl");
  RatingCache cache(path);

  DriverOptions options;
  options.search_threads = 1;
  options.rating_cache = &cache;
  const TuningOutcome first = tune(s, options, rating::Method::kCBR);

  // A different run seed asks different questions: the warm cache must
  // not serve it the old answers.
  DriverOptions other = options;
  other.seed = 2;
  const std::uint64_t hits_before = counter("search.cache.hit");
  const TuningOutcome reseeded = tune(s, other, rating::Method::kCBR);
  EXPECT_EQ(counter("search.cache.hit"), hits_before);

  DriverOptions plain;
  plain.search_threads = 1;
  plain.seed = 2;
  EXPECT_EQ(tune(s, plain, rating::Method::kCBR), reseeded);
  (void)first;
}

/// The cache works under a fault injector: a member's key covers the
/// injector, the guard, and the quarantine entries and validation verdict
/// it reads, so under every sweep seed a cold and a warm cache reproduce
/// the uncached tune_auto() bit for bit under IE, BE and CE, and the warm
/// rerun finds ratings. SWIM rates by CBR; ART by RBR, where BE's and
/// CE's final validation of (start, best) repeats a round-0 pair with no
/// memo EVAL to tell the two apart. (Ratings that abandon a method are
/// not stored, so a warm rerun may still miss.)
TEST_F(ParallelBatchTest, CacheIdentityUnderFaultInjection) {
  for (const char* benchmark : {"SWIM", "ART"}) {
    const Setup s = setup(benchmark);
    for (std::uint64_t seed : {0xfaUL, 0xfbUL}) {
      const fault::FaultInjector injector = sweep_injector(seed);
      for (const char* algo : {"IE", "BE", "CE"}) {
        const auto tune_auto = [&](unsigned threads, RatingCache* cache) {
          DriverOptions options;
          options.search_threads = threads;
          options.search_algorithm = make_search(algo);
          options.fault.injector = &injector;
          options.rating_cache = cache;
          TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                              effects_, options);
          return driver.tune_auto();
        };
        for (unsigned threads : {1u, 2u}) {
          const std::string run = std::string(benchmark) + "_" + algo +
                                  "_" + std::to_string(seed) + "_t" +
                                  std::to_string(threads);
          SCOPED_TRACE(run);
          const TuningOutcome plain = tune_auto(threads, nullptr);
          const std::string path =
              temp_path("peak_cache_faulty_" + run + ".jsonl");
          RatingCache cold_cache(path);
          EXPECT_EQ(tune_auto(threads, &cold_cache), plain);
          RatingCache warm_cache(path);
          EXPECT_EQ(warm_cache.size(), cold_cache.size());
          const std::uint64_t hits = counter("search.cache.hit");
          EXPECT_EQ(tune_auto(threads, &warm_cache), plain);
          EXPECT_GT(counter("search.cache.hit"), hits);
        }
      }
    }
  }
}

TEST_F(ParallelBatchTest, CacheFileSurvivesDamagedTrailingLine) {
  Setup s = setup("SWIM");
  const std::string path = temp_path("peak_rating_cache_damage.jsonl");
  {
    RatingCache cache(path);
    DriverOptions options;
    options.search_threads = 1;
    options.rating_cache = &cache;
    (void)tune(s, options, rating::Method::kCBR);
    ASSERT_GT(cache.size(), 0u);
  }
  std::size_t intact = 0;
  {
    RatingCache reloaded(path);
    intact = reloaded.size();
  }
  // Simulate a crash mid-append: a partial record must be skipped, the
  // complete ones kept.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << R"({"type":"rating","key":"dead)";
  }
  const std::uint64_t corrupt = counter("search.cache.corrupt_lines");
  {
    RatingCache damaged(path);
    EXPECT_EQ(damaged.size(), intact);
    // The next store cuts the torn bytes instead of gluing its record
    // onto them, so the record loads and no line reads as corrupt.
    damaged.store("after-the-tear", RatingDelta{});
  }
  RatingCache reloaded(path);
  EXPECT_EQ(reloaded.size(), intact + 1);
  EXPECT_TRUE(reloaded.lookup("after-the-tear").has_value());
  EXPECT_EQ(counter("search.cache.corrupt_lines"), corrupt);
}

}  // namespace
}  // namespace peak::core
