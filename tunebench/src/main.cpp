// Tuning-session benchmark: runs PEAK's production tuning session back to
// back (one process, one client, closed loop) on one workload, checks
// every session's output, and prints every metric by name with its unit.
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run gives the per-layer ones. README.md describes the
// workloads and what each metric should move.
//
//   tunebench --workload chain_equake --seed 1 --seconds 25 --trace 0
//             [--workdir DIR]

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith.hpp"
#include "obs/metrics.hpp"
#include "search/opt_config.hpp"
#include "session.hpp"
#include "traced.hpp"

namespace {

using namespace peak;
using Clock = std::chrono::steady_clock;
using tunebench::Scenario;

/// Sessions per run never drop below this, so the tail percentile (ten
/// sessions beyond it) is at least the median.
constexpr std::size_t kMinSessions = 20;
/// The timed loop runs in this many consecutive blocks (see end_to_end).
constexpr std::size_t kBlocks = 5;
/// Cold set-ups (cold_setup_s) before each block of an untraced run:
/// this many ms over the nominal session time (a set-up is about one
/// session), but at least three. setup_s is the median of all of them;
/// spread over the run, they sample the host as the block medians do.
constexpr double kSetupBudgetMs = 500.0;
/// Traced runs must cover at least this share of session wall.
constexpr double kMinCoverage = 0.9;
/// Seed of the warm-up session. Fixed, so that setup_s measures set-up
/// and not how long the run's first seed happens to tune.
constexpr std::uint64_t kWarmupSeed = 1;

constexpr double kInf = std::numeric_limits<double>::infinity();

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// User + sys time of this process and its reaped children, ms.
double cpu_ms() {
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return ms(self.ru_utime) + ms(self.ru_stime) + ms(children.ru_utime) +
         ms(children.ru_stime);
}

/// Peak resident set of the largest reaped child (a forked worker), MiB.
double children_max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Peak resident set of this process image, MiB: VmHWM, which starts
/// afresh at exec. (getrusage's ru_maxrss would also count the launcher
/// that exec'ed this process.)
double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

volatile double g_calibration_sink = 0.0;

/// A fixed loop owned by the benchmark (no PEAK code): the median of five
/// timings, ms. Timed before and after each run, it records host drift.
double calibrate_ms() {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 0.0;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x & 0xffff) * 1e-3;
    }
    g_calibration_sink = acc;
    reps.push_back(ms_since(t0));
  }
  return tunebench::median(reps);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/tunebench/work";
  /// Set up, print the warm-up outcome and exit (see cold_setup_s).
  bool setup_child = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else if (flag == "--setup-child") {
        args.setup_child = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0;
}

/// Metrics in print order, with units.
class Report {
public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }

  void print_lines() const {
    for (const Row& r : rows_)
      std::printf("  %-26s %16.6f %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
  }

  void print_json(bool correct, std::size_t attempted,
                  std::size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", r.name.c_str());
      if (std::isfinite(r.value))
        std::printf("%.17g", r.value);
      else
        std::printf("null");  // a failed session missed every limit
      std::printf(", \"unit\": \"%s\"}", r.unit.c_str());
    }
    std::printf("}}\n");
  }

private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Pass/fail bookkeeping: attempted and failed sessions plus run-level
/// checks, each failure reported on stderr with its reason.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool run_checks_ok = true;

  void session_failed(std::uint64_t seed, const std::string& why) {
    ++failed;
    std::fprintf(stderr, "session seed %llu FAILED: %s\n",
                 static_cast<unsigned long long>(seed), why.c_str());
  }
  void run_check_failed(const std::string& why) {
    run_checks_ok = false;
    std::fprintf(stderr, "run check FAILED: %s\n", why.c_str());
  }
  [[nodiscard]] bool correct() const { return failed == 0 && run_checks_ok; }
};

/// One session as the loop saw it, then as the checks judged it.
struct SessionRecord {
  std::uint64_t seed = 0;
  double wall_ms = kInf;
  double cpu_ms = 0.0;
  core::MethodRun run;
  std::string error;  ///< non-empty when the session threw or failed a check
};

/// Runs one session under a wall timer; a throw is recorded, not raised.
SessionRecord timed_session(const Scenario& s, std::uint64_t seed) {
  SessionRecord rec;
  rec.seed = seed;
  tunebench::reset_session_files(s);
  const double cpu0 = cpu_ms();
  const Clock::time_point t0 = Clock::now();
  try {
    rec.run = tunebench::run_session(s, seed);
    rec.wall_ms = ms_since(t0);
  } catch (const std::exception& e) {
    rec.error = std::string("threw: ") + e.what();
  }
  rec.cpu_ms = cpu_ms() - cpu0;
  return rec;
}

/// One cold set-up: this program re-executed with --setup-child builds
/// the scenario and runs the warm-up session in a fresh process, paying
/// exec, static initialisation and first-touch allocation as a new
/// `peak tune` process does. Returns the seconds from fork until the
/// child reports; `outcome` gets its warm-up session's fingerprint.
double cold_setup_s(const Args& args, std::string& outcome) {
  std::vector<std::string> words = {"/proc/self/exe", "--workload",
                                    args.workload,    "--workdir",
                                    args.workdir,     "--setup-child",
                                    "1"};
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const Clock::time_point t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // ends with a killed benchmark
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  double seconds = -1.0;
  char buf[512];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    text.append(buf, static_cast<std::size_t>(n));
    if (seconds < 0.0 && text.find('\n') != std::string::npos)
      seconds = ms_since(t0) / 1000.0;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || seconds < 0.0)
    throw std::runtime_error("set-up child process failed");
  outcome = text.substr(0, text.find('\n'));
  return seconds;
}

/// The output checks of one completed session, outside its timing:
/// well-formed result; a session with the warm-up seed reproduces the
/// warm-up session; a forked-worker session equals the in-process
/// session with the same seed.
void check_session(const Scenario& s, const std::string& warmup,
                   SessionRecord& rec) {
  if (!rec.error.empty()) return;
  rec.error = tunebench::check_run(rec.run, search::gcc33_o3_space().size());
  if (rec.error.empty() && rec.seed == kWarmupSeed &&
      tunebench::fingerprint(rec.run) != warmup)
    rec.error = "differs from the warm-up session with the same seed";
  if (rec.error.empty() && s.spec->isolate_workers > 0) {
    try {
      if (!tunebench::same_run(
              tunebench::run_session(s, rec.seed, /*in_process=*/true), rec.run))
        rec.error = "forked-worker outcome differs from in-process threads";
    } catch (const std::exception& e) {
      rec.error = std::string("in-process reference threw: ") + e.what();
    }
  }
  if (!rec.error.empty()) rec.wall_ms = kInf;  // misses every limit
}

/// A consecutive stretch of the timed loop, timed on its own.
struct Block {
  std::size_t begin = 0;  ///< session indices [begin, end)
  std::size_t end = 0;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
};

/// End-to-end metrics of an untraced run. Throughput and CPU per
/// session are medians over the loop's blocks, so a burst of load from
/// outside the process that slows one block does not move them.
void end_to_end(const std::vector<SessionRecord>& recs,
                const std::vector<Block>& blocks, double setup_s,
                Report& report) {
  std::vector<double> walls;
  std::vector<double> ratios;
  double gcycles = 0.0;
  std::size_t completed = 0;
  for (const SessionRecord& r : recs) {
    walls.push_back(r.wall_ms);
    if (!r.error.empty()) continue;
    ++completed;
    ratios.push_back(1.0 + r.run.ref_improvement_pct / 100.0);
    gcycles += r.run.cost.simulated_time / 1e9;
  }
  std::vector<double> block_rates;
  std::vector<double> block_cpu;
  double wall_s = 0.0;
  double cpu = 0.0;
  for (const Block& b : blocks) {
    std::size_t ok = 0;
    for (std::size_t i = b.begin; i < b.end; ++i) ok += recs[i].error.empty();
    block_rates.push_back(static_cast<double>(ok) / b.wall_s);
    block_cpu.push_back(b.cpu_ms / static_cast<double>(b.end - b.begin));
    wall_s += b.wall_s;
    cpu += b.cpu_ms;
  }
  std::printf("whole loop: %.4f sessions/s, %.3f ms cpu per session\n",
              static_cast<double>(completed) / wall_s,
              cpu / static_cast<double>(recs.size()));
  const tunebench::Tail tail = tunebench::tail_percentile(walls);
  std::printf("session_tail_ms is p%d of n=%zu sessions (%zu beyond it)\n",
              tail.percentile, tail.n, tail.beyond);
  report.add("sessions_per_s", tunebench::median(block_rates), "sessions/s");
  report.add("session_p50_ms", tunebench::median(walls), "ms");
  report.add("session_tail_ms", tail.value, "ms");
  report.add("cpu_per_session_ms", tunebench::median(block_cpu), "ms");
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", self_peak_rss_mb(), "MiB");
  report.add("ref_speedup_geomean", tunebench::geomean(ratios), "ratio");
  report.add("tuning_gcycles",
             completed ? gcycles / static_cast<double>(completed) : kInf,
             "Gcycles");
}

/// Obs counters whose per-session deltas the traced run reports. They
/// are parent-only: increments made inside forked workers stay there.
constexpr const char* kCounters[] = {
    "sim.base_cache.miss", "sim.base_cache.hit",  "window.samples",
    "mbr.fits",            "search.cache.store",  "proc.workers.spawned",
    "proc.tasks.retried",  "search.configs_evaluated",
};

std::uint64_t counter(const obs::MetricsRegistry::Snapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

std::uintmax_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : n;
}

/// The traced run: pairs of one untraced and one traced session per
/// seed (alternating which goes first), then the per-call probes.
void traced_run(const Scenario& s, std::uint64_t seed, std::size_t pairs,
                const std::string& warmup,
                const std::string& spans_path, Verdict& verdict,
                Report& report) {
  tunebench::SpanLog log;
  std::vector<SessionRecord> untraced;
  std::vector<double> traced_walls;
  std::map<std::string, double> counter_sums;
  double converged = 0.0;
  double started = 0.0;
  tunebench::SearchTally tally;
  double journal_bytes = 0.0;
  double cache_bytes = 0.0;

  for (std::size_t i = 0; i < pairs; ++i) {
    const std::uint64_t session_seed = seed + i;
    const auto traced = [&] {
      tunebench::reset_session_files(s);
      const obs::MetricsRegistry::Snapshot before =
          obs::MetricsRegistry::global().snapshot();
      SessionRecord rec;
      rec.seed = session_seed;
      const Clock::time_point t0 = Clock::now();
      try {
        rec.run =
            tunebench::run_traced_session(s, session_seed, log, i, tally);
        rec.wall_ms = ms_since(t0);
      } catch (const std::exception& e) {
        rec.error = std::string("traced session threw: ") + e.what();
      }
      const obs::MetricsRegistry::Snapshot after =
          obs::MetricsRegistry::global().snapshot();
      for (const char* name : kCounters)
        counter_sums[name] += static_cast<double>(counter(after, name) -
                                                  counter(before, name));
      converged += static_cast<double>(counter(after, "rating.converged") -
                                       counter(before, "rating.converged"));
      started += static_cast<double>(counter(after, "rating.started") -
                                     counter(before, "rating.started"));
      journal_bytes += static_cast<double>(file_bytes(s.journal_path()));
      cache_bytes += static_cast<double>(file_bytes(s.cache_path()));
      return rec;
    };
    SessionRecord t;
    SessionRecord u;
    if (i % 2 == 0) {
      u = timed_session(s, session_seed);
      t = traced();
    } else {
      t = traced();
      u = timed_session(s, session_seed);
    }
    check_session(s, warmup, u);
    verdict.attempted += 2;
    if (!u.error.empty()) {
      verdict.session_failed(session_seed, u.error);
    }
    if (t.error.empty() && u.error.empty() && !tunebench::same_run(t.run, u.run))
      t.error = "traced session differs from tune_with_consultant";
    if (!t.error.empty()) {
      verdict.session_failed(session_seed, t.error);
      t.wall_ms = kInf;
    }
    traced_walls.push_back(t.wall_ms);
    untraced.push_back(std::move(u));
  }
  const double children_rss_mb = children_max_rss_mb();

  const tunebench::SpanSummary spans = tunebench::summarize(log.spans());
  const double coverage =
      spans.session_ms > 0.0 ? spans.covered_ms / spans.session_ms : 0.0;
  if (coverage < kMinCoverage)
    verdict.run_check_failed("trace coverage below 0.9");
  if (!log.write_jsonl(spans_path))
    std::fprintf(stderr, "could not write spans to %s\n", spans_path.c_str());
  else
    std::printf("spans written to %s\n", spans_path.c_str());

  std::vector<double> untraced_walls;
  double untraced_cpu = 0.0;
  for (const SessionRecord& u : untraced) {
    untraced_walls.push_back(u.wall_ms);
    untraced_cpu += u.cpu_ms;
  }
  const double p50_untraced = tunebench::median(untraced_walls);
  const double p50_traced = tunebench::median(traced_walls);
  std::printf("session_p50_ms untraced %.3f, traced %.3f\n", p50_untraced,
              p50_traced);

  const tunebench::Probes probes = tunebench::run_probes(s, seed);

  const double n = static_cast<double>(pairs);
  const auto per_session = [&](const std::string& layer) {
    const auto it = spans.total_ms.find(layer);
    return it == spans.total_ms.end() ? 0.0 : it->second / n;
  };
  // Layer shares of session wall; the largest should be the layer the
  // workload was chosen for.
  const std::pair<const char*, double> layers[] = {
      {"workloads.trace_ms", per_session("workloads.trace")},
      {"core.profile_ms", per_session("core.profile")},
      {"core.driver_setup_ms", per_session("core.driver_setup")},
      {"core.rating_ms", per_session("core.rating")},
      {"search.self_ms", spans.search_self_ms / n},
      {"core.ref_eval_ms", per_session("core.ref_eval")},
  };
  const double session_ms = spans.session_ms / n;
  std::printf("layer shares of traced session wall (%.1f ms):", session_ms);
  const std::pair<const char*, double>* largest = &layers[0];
  for (const auto& layer : layers) {
    std::printf(" %s %.1f%%", layer.first, 100.0 * layer.second / session_ms);
    if (layer.second > largest->second) largest = &layer;
  }
  std::printf("\nlargest layer: %s\n", largest->first);
  std::printf("counter deltas below are parent-only: forked workers' "
              "increments do not reach the parent\n");
  for (const auto& [name, ms] : layers) report.add(name, ms, "ms");
  report.add("ir.vm_run_us", probes.vm_run_us, "us");
  report.add("sim.invoke_miss_us", probes.invoke_miss_us, "us");
  report.add("sim.invoke_hit_us", probes.invoke_hit_us, "us");
  report.add("rating.window_add_us", probes.window_add_us, "us");
  report.add("rating.mbr_rating_us", probes.mbr_rating_us, "us");
  report.add("proc.round_ms", probes.proc_round_ms, "ms");
  for (const char* name : kCounters)
    report.add(name, counter_sums[name] / n, "count");
  report.add("rating.converged_ratio", started > 0 ? converged / started : 0.0,
             "ratio");
  report.add("search.rounds", static_cast<double>(tally.rounds) / n, "count");
  report.add("search.round_members",
             tally.rounds ? static_cast<double>(tally.members) /
                                static_cast<double>(tally.rounds)
                          : 0.0,
             "count");
  report.add("core.journal_bytes", journal_bytes / n, "bytes");
  report.add("core.cache_bytes", cache_bytes / n, "bytes");
  report.add("support.parallel_eff", untraced_cpu / n / p50_untraced, "ratio");
  report.add("proc.worker_rss_mb", children_rss_mb, "MiB");
  report.add("trace.coverage", coverage, "ratio");
  report.add("trace.overhead_pct",
             (p50_traced - p50_untraced) / p50_untraced * 100.0, "%");
}

int run(const Args& args) {
  const tunebench::WorkloadSpec* spec = tunebench::find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.setup_child) {
    Scenario scenario = tunebench::make_scenario(*spec, args.workdir);
    tunebench::reset_session_files(scenario);
    const std::string outcome =
        tunebench::fingerprint(tunebench::run_session(scenario, kWarmupSeed));
    std::printf("%s\n", outcome.c_str());
    std::fflush(stdout);  // the parent stops its timer here
    return 0;
  }
  std::filesystem::create_directories(args.workdir);
  const double calib_before = calibrate_ms();

  // Every run tunes a fixed seed list sized from --seconds, so runs with
  // one seed do identical work and the deterministic metrics repeat.
  const std::size_t sessions = std::max<std::size_t>(
      kMinSessions,
      static_cast<std::size_t>(
          std::llround(args.seconds * 1000.0 / spec->nominal_session_ms)));

  // Set-up: workload and IR model, machine model, and one warm-up
  // session (effect model, lazy set-up).
  Verdict verdict;
  Scenario scenario = tunebench::make_scenario(*spec, args.workdir);
  tunebench::reset_session_files(scenario);
  std::string warmup;
  try {
    warmup =
        tunebench::fingerprint(tunebench::run_session(scenario, kWarmupSeed));
  } catch (const std::exception& e) {
    verdict.run_check_failed(std::string("warm-up session threw: ") + e.what());
  }
  std::printf("workload %s: %s on %s, search_threads %u, isolate_workers %u%s\n",
              args.workload.c_str(), scenario.workload->full_name().c_str(),
              scenario.machine.name.c_str(), tunebench::kSearchThreads,
              spec->isolate_workers,
              spec->isolate_workers > 0
                  ? ", fresh journal + rating cache per session"
                  : "");

  const std::size_t mismatches =
      tunebench::oracle_mismatches(scenario, args.seed);
  std::printf("oracle: BytecodeVm vs Interpreter on train invocations: %zu "
              "mismatches\n", mismatches);
  if (mismatches != 0)
    verdict.run_check_failed("BytecodeVm differs from the Interpreter");

  Report report;
  if (!args.trace) {
    std::printf("timed loop: %zu sessions, seeds %llu..%llu\n", sessions,
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(args.seed + sessions - 1));
    std::vector<SessionRecord> recs;
    std::vector<Block> blocks;
    // setup_s times this process's set-up again in fresh processes,
    // where it is a first set-up; each must reproduce the warm-up.
    std::vector<double> setup_s;
    const int setup_reps = std::max(
        3, static_cast<int>(kSetupBudgetMs / spec->nominal_session_ms));
    for (std::size_t b = 0; b < kBlocks; ++b) {
      for (int rep = 0; rep < setup_reps; ++rep) {
        std::string outcome;
        setup_s.push_back(cold_setup_s(args, outcome));
        if (outcome != warmup)
          verdict.run_check_failed("warm-up session of a fresh process differs");
      }
      Block block;
      block.begin = b * sessions / kBlocks;
      block.end = (b + 1) * sessions / kBlocks;
      const double cpu0 = cpu_ms();
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = block.begin; i < block.end; ++i)
        recs.push_back(timed_session(scenario, args.seed + i));
      block.wall_s = ms_since(t0) / 1000.0;
      block.cpu_ms = cpu_ms() - cpu0;
      blocks.push_back(block);
    }
    std::map<std::string, std::size_t> methods;
    for (SessionRecord& rec : recs) {
      check_session(scenario, warmup, rec);
      ++verdict.attempted;
      if (!rec.error.empty())
        verdict.session_failed(rec.seed, rec.error);
      else
        ++methods[rating::to_string(rec.run.method)];
    }
    for (const auto& [m, count] : methods)
      std::printf("final method %s: %zu sessions\n", m.c_str(), count);
    std::printf("cold set-ups (s):");
    for (const double t : setup_s) std::printf(" %.4f", t);
    std::printf("\n");
    end_to_end(recs, blocks, tunebench::median(setup_s), report);
  } else {
    const std::size_t pairs = (sessions + 1) / 2;
    std::printf("traced run: %zu untraced + %zu traced sessions, seeds "
                "%llu..%llu\n", pairs, pairs,
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(args.seed + pairs - 1));
    const std::string spans_path = args.workdir + "/spans-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".jsonl";
    traced_run(scenario, args.seed, pairs, warmup, spans_path, verdict,
               report);
  }
  tunebench::reset_session_files(scenario);

  const double calib_after = calibrate_ms();
  std::printf("host calibration loop: %.3f ms before, %.3f ms after\n",
              calib_before, calib_after);
  if (args.trace)
    report.add("host.calib_ms", 0.5 * (calib_before + calib_after), "ms");
  std::printf("sessions attempted %zu, failed %zu (failure share %.4f)\n",
              verdict.attempted, verdict.failed,
              tunebench::failure_share(verdict.failed, verdict.attempted));
  report.print_lines();
  std::fflush(stdout);
  report.print_json(verdict.correct(), verdict.attempted, verdict.failed);
  return verdict.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: tunebench --workload rbr_twolf|chain_equake|"
                 "isolated_swim --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tunebench: %s\n", e.what());
    return 1;
  }
}
