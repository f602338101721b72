/// \file bench_headline.cpp
/// Regenerates the paper's §5.2 headline numbers: "up to 178% performance
/// improvements (26% on average)" and "a reduction in program tuning time
/// of up to 96% (80% on average)", aggregated over the consultant-chosen
/// rating method for each benchmark × machine.
///
/// Besides the human-readable stdout report, writes BENCH_headline.json
/// (machine-readable, schema checked by tools/check_bench_json.py).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "core/rating_cache.hpp"
#include "core/tuning_driver.hpp"
#include "crash_sweep.hpp"
#include "dist_sweep.hpp"
#include "engine_compare.hpp"
#include "fig7_common.hpp"
#include "obs/export.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "support/cpus.hpp"
#include "support/http_server.hpp"

namespace {

using namespace peak;

constexpr int kTimedRuns = 3;    ///< timed samples per arm; the best counts
constexpr int kTimedTunes = 5;   ///< back-to-back tunes in one sample

/// The batched search fan-out: whether it changes outcomes, how well a
/// warm rating cache serves a rerun, and what it buys in wall time. Feeds
/// the "search" section of BENCH_headline.json.
///
/// Outcome identity covers five SWIM/sparc2 CBR tunes at 1 and 4 threads
/// plus every timed run; the cache arms rerun SWIM seed 1 from disk. The
/// timed case is EQUAKE.smvp on p4 through the consultant chain (CBR and
/// MBR are abandoned, RBR finishes), a tune whose wall time is almost all
/// rating, the work the fan-out spreads over its slots. A ~2-3 ms SWIM
/// CBR tune would time the fan-out's fixed costs instead: a serial base-
/// rating prologue and one cold start per slot clone.
struct SearchBench {
  std::string timed_benchmark;
  std::string timed_machine;
  unsigned threads = 4;
  /// CPUs this process may run on (its affinity mask, what `nproc`
  /// prints), written as the `hardware_concurrency` key the gate reads.
  unsigned hardware_concurrency = 0;
  int timed_tunes = 0;           ///< tunes per timed sample
  double serial_wall_s = 0.0;    ///< best of kTimedRuns samples, 1 thread
  double parallel_wall_s = 0.0;  ///< best of kTimedRuns samples, `threads`
  double search_speedup = 0.0;
  bool outcome_identical = false;
  std::uint64_t cold_stores = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
  double warm_hit_rate = 0.0;
  bool warm_outcome_identical = false;
};

std::uint64_t counter_value(const std::string& name) {
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// The untimed arms: SWIM outcome identity and the cold/warm rating cache.
/// Runs before the metrics snapshot, whose counters they feed.
SearchBench run_search_bench() {
  SearchBench out;
  out.hardware_concurrency = support::usable_cpus();

  const sim::MachineModel machine = sim::sparc2();
  const sim::FlagEffectModel effects(search::gcc33_o3_space());
  const std::unique_ptr<workloads::Workload> workload =
      workloads::make_workload("SWIM");
  const workloads::Trace train =
      workload->trace(workloads::DataSet::kTrain, 42);
  const core::ProfileData profile =
      core::profile_workload(*workload, train, machine);

  auto tune = [&](unsigned threads, std::uint64_t seed,
                  core::RatingCache* cache) {
    core::DriverOptions options;
    options.seed = seed;
    options.search_threads = threads;
    options.rating_cache = cache;
    core::TuningDriver driver(*workload, profile, train, machine, effects,
                              options);
    return driver.tune(rating::Method::kCBR);
  };
  constexpr std::uint64_t kSeeds = 5;

  std::vector<core::TuningOutcome> serial;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed)
    serial.push_back(tune(1, seed, nullptr));
  std::vector<core::TuningOutcome> parallel;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed)
    parallel.push_back(tune(out.threads, seed, nullptr));
  out.outcome_identical = serial == parallel;

  // Cold run populates an on-disk rating cache; a warm rerun with a fresh
  // cache object (same file) must reproduce the outcome from disk.
  const std::string cache_path = "BENCH_rating_cache.jsonl";
  std::remove(cache_path.c_str());
  const std::uint64_t stores_before = counter_value("search.cache.store");
  core::TuningOutcome cold;
  {
    core::RatingCache cache(cache_path);
    cold = tune(out.threads, 1, &cache);
  }
  out.cold_stores = counter_value("search.cache.store") - stores_before;
  const std::uint64_t hits_before = counter_value("search.cache.hit");
  const std::uint64_t misses_before = counter_value("search.cache.miss");
  core::TuningOutcome warm;
  {
    core::RatingCache cache(cache_path);
    warm = tune(out.threads, 1, &cache);
  }
  out.warm_hits = counter_value("search.cache.hit") - hits_before;
  out.warm_misses = counter_value("search.cache.miss") - misses_before;
  const std::uint64_t lookups = out.warm_hits + out.warm_misses;
  out.warm_hit_rate =
      lookups > 0 ? static_cast<double>(out.warm_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  out.warm_outcome_identical = warm == cold;
  return out;
}

/// The timed arms: EQUAKE/p4 tune_auto at 1 and at `out.threads` threads,
/// best of kTimedRuns samples each, with the profile built once outside
/// the timer. A sample is kTimedTunes back-to-back tunes, each with a
/// fresh driver: one ~0.2 s serial tune is too short to time on a shared
/// host (the first parallel tune after an idle spell often runs twice as
/// long as the next), five carry about a second of serial rating work.
/// Runs after the metrics snapshot, so the drift-compared metrics and
/// ledger stay those of the untimed arms; every tune must reproduce the
/// first serial outcome.
void time_search_fanout(SearchBench& out) {
  const sim::MachineModel machine = sim::pentium4();
  const sim::FlagEffectModel effects(search::gcc33_o3_space());
  const std::unique_ptr<workloads::Workload> workload =
      workloads::make_workload("EQUAKE");
  const workloads::Trace train =
      workload->trace(workloads::DataSet::kTrain, 42);
  const core::ProfileData profile =
      core::profile_workload(*workload, train, machine);
  out.timed_benchmark = workload->benchmark();
  out.timed_machine = machine.name;

  out.timed_tunes = kTimedTunes;
  using clock = std::chrono::steady_clock;
  std::optional<core::TuningOutcome> first;
  auto timed_sample = [&](unsigned threads) {
    const clock::time_point t0 = clock::now();
    for (int tune = 0; tune < kTimedTunes; ++tune) {
      core::DriverOptions options;
      options.search_threads = threads;
      core::TuningDriver driver(*workload, profile, train, machine, effects,
                                options);
      const core::TuningOutcome outcome = driver.tune_auto();
      if (!first) first = outcome;
      if (!(outcome == *first)) out.outcome_identical = false;
    }
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  // Alternate the arms so a change in host load weighs on both alike.
  out.serial_wall_s = out.parallel_wall_s =
      std::numeric_limits<double>::infinity();
  for (int run = 0; run < kTimedRuns; ++run) {
    out.serial_wall_s = std::min(out.serial_wall_s, timed_sample(1));
    out.parallel_wall_s =
        std::min(out.parallel_wall_s, timed_sample(out.threads));
  }
  out.search_speedup = out.serial_wall_s / out.parallel_wall_s;
}

/// Scrape latency and non-perturbation of the live telemetry server:
/// client-observed /metrics + /snapshot round-trip percentiles while a
/// tuning run is hammered, and whether the hammered run's outcome stayed
/// bit-identical to an unobserved one. Feeds the "telemetry" section of
/// BENCH_headline.json. Runs LAST, after the drift-compared metrics and
/// ledger sections are snapshotted — its counters and latency histograms
/// are wall-clock-driven and differ run to run.
struct TelemetryBench {
  std::uint64_t scrapes = 0;
  std::uint64_t errors = 0;
  double scrape_p50_us = 0.0;
  double scrape_p99_us = 0.0;
  bool outcome_identical = false;
};

TelemetryBench run_telemetry_bench() {
  TelemetryBench out;

  const sim::MachineModel machine = sim::sparc2();
  const sim::FlagEffectModel effects(search::gcc33_o3_space());
  const std::unique_ptr<workloads::Workload> workload =
      workloads::make_workload("SWIM");
  const workloads::Trace train =
      workload->trace(workloads::DataSet::kTrain, 42);
  const core::ProfileData profile =
      core::profile_workload(*workload, train, machine);
  auto tune = [&] {
    core::TuningDriver driver(*workload, profile, train, machine, effects,
                              {});
    return driver.tune(rating::Method::kCBR);
  };
  const core::TuningOutcome baseline = tune();

  obs::TelemetryServer server({});
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "telemetry bench: server failed to start: %s\n",
                 error.c_str());
    return out;  // outcome_identical=false fails the JSON gate loudly
  }
  server.set_run_phase("tuning");

  std::atomic<bool> done{false};
  std::mutex latencies_mutex;
  std::vector<double> latencies_us;
  std::atomic<std::uint64_t> errors{0};
  const char* paths[] = {"/metrics", "/snapshot"};
  std::vector<std::thread> scrapers;
  for (const char* path : paths)
    scrapers.emplace_back([&, path] {
      using clock = std::chrono::steady_clock;
      int mine = 0;
      // Keep going past `done` until a latency floor is sampled even if
      // the observed tunes outran the first scrape.
      while (!done.load() || mine < 10) {
        const clock::time_point t0 = clock::now();
        const support::HttpClientResult r =
            support::http_get("127.0.0.1", server.port(), path);
        const double us =
            std::chrono::duration<double, std::micro>(clock::now() - t0)
                .count();
        if (r.ok && r.status == 200) {
          ++mine;
          std::lock_guard lock(latencies_mutex);
          latencies_us.push_back(us);
        } else {
          ++errors;
        }
      }
    });

  out.outcome_identical = true;
  for (int run = 0; run < 3; ++run)
    if (!(tune() == baseline)) out.outcome_identical = false;

  done = true;
  for (std::thread& s : scrapers) s.join();
  server.stop();

  out.errors = errors.load();
  out.scrapes = latencies_us.size();
  if (!latencies_us.empty()) {
    std::sort(latencies_us.begin(), latencies_us.end());
    const auto at = [&](double p) {
      return latencies_us[static_cast<std::size_t>(
          p * static_cast<double>(latencies_us.size() - 1))];
    };
    out.scrape_p50_us = at(0.5);
    out.scrape_p99_us = at(0.99);
  }
  return out;
}

void print_telemetry_bench(const TelemetryBench& t) {
  std::printf(
      "Telemetry server (SWIM, CBR, scrape hammer on /metrics + "
      "/snapshot):\n"
      "  %llu scrapes (%llu errors)  latency p50 %.0fus  p99 %.0fus  "
      "outcomes %s\n",
      static_cast<unsigned long long>(t.scrapes),
      static_cast<unsigned long long>(t.errors), t.scrape_p50_us,
      t.scrape_p99_us, t.outcome_identical ? "identical" : "DIFFER");
}

void append_telemetry_json(std::ostream& os, const TelemetryBench& t) {
  os << "{\"scrapes\":" << t.scrapes << ",\"errors\":" << t.errors
     << ",\"scrape_p50_us\":" << t.scrape_p50_us
     << ",\"scrape_p99_us\":" << t.scrape_p99_us
     << ",\"outcome_identical\":"
     << (t.outcome_identical ? "true" : "false") << "}";
}

void print_search_bench(const SearchBench& s) {
  std::printf(
      "Parallel batched search (%s/%s, %d tune_auto per sample, best of %d, "
      "%u threads on %u usable cores):\n"
      "  serial %.3fs  parallel %.3fs  speedup %.2fx  outcomes %s "
      "(also SWIM/sparc2 CBR, 5 seeds)\n"
      "  rating cache (SWIM): %llu stored cold, warm rerun %llu/%llu hits "
      "(%.0f%%), outcome %s\n",
      s.timed_benchmark.c_str(), s.timed_machine.c_str(), s.timed_tunes,
      kTimedRuns,
      s.threads, s.hardware_concurrency, s.serial_wall_s, s.parallel_wall_s,
      s.search_speedup, s.outcome_identical ? "identical" : "DIFFER",
      static_cast<unsigned long long>(s.cold_stores),
      static_cast<unsigned long long>(s.warm_hits),
      static_cast<unsigned long long>(s.warm_hits + s.warm_misses),
      100.0 * s.warm_hit_rate,
      s.warm_outcome_identical ? "identical" : "DIFFERS");
}

void append_search_json(std::ostream& os, const SearchBench& s) {
  os << "{\"benchmark\":\"SWIM\",\"timed_benchmark\":\""
     << obs::json_escape(s.timed_benchmark) << "\",\"timed_machine\":\""
     << obs::json_escape(s.timed_machine)
     << "\",\"timed_tunes\":" << s.timed_tunes << ",\"threads\":" << s.threads
     << ",\"hardware_concurrency\":" << s.hardware_concurrency
     << ",\"serial_wall_s\":" << s.serial_wall_s
     << ",\"parallel_wall_s\":" << s.parallel_wall_s
     << ",\"search_speedup\":" << s.search_speedup
     << ",\"outcome_identical\":"
     << (s.outcome_identical ? "true" : "false")
     << ",\"cache\":{\"cold_stores\":" << s.cold_stores
     << ",\"warm_hits\":" << s.warm_hits
     << ",\"warm_misses\":" << s.warm_misses
     << ",\"warm_hit_rate\":" << s.warm_hit_rate
     << ",\"warm_outcome_identical\":"
     << (s.warm_outcome_identical ? "true" : "false") << "}}";
}

/// One "benchmark ran via method X" record as a JSON object.
void append_run_json(std::ostream& os, const core::BenchmarkResult& b) {
  const core::MethodRun* run = b.find(b.chosen, workloads::DataSet::kTrain);
  if (!run) return;
  os << "{\"benchmark\":\"" << obs::json_escape(b.benchmark)
     << "\",\"method\":\"" << rating::to_string(b.chosen)
     << "\",\"ref_improvement_pct\":" << run->ref_improvement_pct
     << ",\"tuning_time_reduction_pct\":"
     << 100.0 * (1.0 - b.normalized_tuning_time(b.chosen,
                                                workloads::DataSet::kTrain))
     << ",\"configs_evaluated\":" << run->cost.configs_evaluated
     << ",\"invocations\":" << run->cost.invocations << "}";
}

bool write_json(const std::string& path,
                const std::vector<bench::Figure7Results>& machines,
                const bench::Headline& h,
                const bench::EngineCompareResult& engines,
                const SearchBench& search, const TelemetryBench& telemetry,
                const bench::CrashSweepResult& crashes,
                const bench::DistSweepResult& dist,
                const obs::MetricsRegistry::Snapshot& metrics,
                const obs::Ledger::Node& costs) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"bench\":\"headline\",\"schema\":1,\"machines\":[";
  bool first_machine = true;
  for (const bench::Figure7Results& results : machines) {
    if (!first_machine) os << ",";
    first_machine = false;
    os << "{\"machine\":\"" << obs::json_escape(results.machine.name)
       << "\",\"runs\":[";
    bool first_run = true;
    for (const core::BenchmarkResult& b : results.benchmarks) {
      std::ostringstream one;
      append_run_json(one, b);
      if (one.str().empty()) continue;
      if (!first_run) os << ",";
      first_run = false;
      os << one.str();
    }
    os << "]}";
  }
  os << "],\"headline\":{\"max_improvement_pct\":" << h.max_improvement_pct
     << ",\"avg_improvement_pct\":" << h.avg_improvement_pct
     << ",\"max_time_reduction_pct\":" << h.max_time_reduction_pct
     << ",\"avg_time_reduction_pct\":" << h.avg_time_reduction_pct
     << "},\"engine_speedup\":";
  bench::write_engine_speedup_fragment(os, engines);
  os << ",\"search\":";
  append_search_json(os, search);
  os << ",\"telemetry\":";
  append_telemetry_json(os, telemetry);
  os << ",\"crash_sweep\":";
  bench::write_crash_sweep_fragment(os, crashes);
  os << ",\"dist_sweep\":";
  bench::write_dist_sweep_fragment(os, dist);
  os << ",\"metrics\":";
  obs::write_metrics_json(metrics, os);
  os << ",\"cost_attribution\":";
  obs::write_ledger_json(costs, os);
  os << "}\n";
  return static_cast<bool>(os);
}

}  // namespace

int main() {
  using namespace peak;
  std::cout << "Reproducing the Section 5.2 headline aggregates\n\n";

  std::vector<bench::Figure7Results> machines;
  for (const sim::MachineModel& machine :
       {sim::sparc2(), sim::pentium4()})
    machines.push_back(bench::run_figure7(machine));

  for (const bench::Figure7Results& results : machines) {
    std::cout << "[" << results.machine.name << "]\n";
    for (const core::BenchmarkResult& b : results.benchmarks) {
      const core::MethodRun* run =
          b.find(b.chosen, workloads::DataSet::kTrain);
      if (!run) continue;
      std::printf(
          "  %-7s via %-3s: improvement %7.2f%%  tuning-time reduction "
          "%5.1f%%\n",
          b.benchmark.c_str(), rating::to_string(b.chosen),
          run->ref_improvement_pct,
          100.0 * (1.0 - b.normalized_tuning_time(
                             b.chosen, workloads::DataSet::kTrain)));
    }
  }

  const bench::Headline h = bench::compute_headline(machines);
  std::printf(
      "\nHeadline: up to %.0f%% performance improvement (%.0f%% on "
      "average)\n          tuning-time reduction up to %.0f%% (%.0f%% on "
      "average)\n",
      h.max_improvement_pct, h.avg_improvement_pct,
      h.max_time_reduction_pct, h.avg_time_reduction_pct);
  std::printf(
      "Paper:    up to 178%% performance improvement (26%% on average)\n"
      "          tuning-time reduction up to 96%% (80%% on average)\n");

  const bench::EngineCompareResult engines = bench::run_engine_compare();
  std::cout << "\n";
  bench::print_engine_compare(engines, std::cout);

  SearchBench search = run_search_bench();

  // Snapshot the drift-compared sections NOW: the telemetry bench below
  // feeds wall-clock-driven scrape counters and latency histograms into
  // the global registry, which would trip the metrics-drift sentinel.
  const obs::MetricsRegistry::Snapshot metrics =
      obs::MetricsRegistry::global().snapshot();
  const obs::Ledger::Node costs = obs::Ledger::global().snapshot();

  const TelemetryBench telemetry = run_telemetry_bench();
  std::cout << "\n";
  print_telemetry_bench(telemetry);

  // Also after the snapshot: worker forks feed proc.* counters into the
  // registry, which must stay out of the drift-compared metrics section.
  const bench::CrashSweepResult crashes = bench::run_crash_sweep();
  std::cout << "\n";
  bench::print_crash_sweep(crashes, std::cout);

  // Likewise after the snapshot: coordinator fleets feed dist.* counters
  // and wall-driven heartbeat timings into the registry.
  const bench::DistSweepResult dist = bench::run_dist_sweep();
  std::cout << "\n";
  bench::print_dist_sweep(dist, std::cout);

  // Last of all: under `ctest -j` most other tests have finished by now,
  // so the timed arms compete least for the cores they are timed on.
  time_search_fanout(search);
  std::cout << "\n";
  print_search_bench(search);

  const std::string json_path = "BENCH_headline.json";
  if (write_json(json_path, machines, h, engines, search, telemetry,
                 crashes, dist, metrics, costs))
    std::printf("Wrote %s\n", json_path.c_str());
  else
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
  return 0;
}
