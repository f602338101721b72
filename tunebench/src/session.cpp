#include "session.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "core/rating_cache.hpp"
#include "ir/bytecode.hpp"
#include "ir/interpreter.hpp"
#include "support/rng.hpp"

namespace tunebench {

namespace {

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

bool same_image(const ir::Memory& x, const ir::Memory& y) {
  if (!same_bits(x.scalars, y.scalars) || x.arrays.size() != y.arrays.size())
    return false;
  for (std::size_t i = 0; i < x.arrays.size(); ++i)
    if (!same_bits(x.arrays[i], y.arrays[i])) return false;
  return true;
}

// Each workload is one tuning section on which one layer does most of
// the work; README.md gives the measured layer shares.
constexpr WorkloadSpec kWorkloads[] = {
    // VM-bound: RBR on an irregular integer code; the two ref-dataset
    // evaluations on cold backends are most of the session. Runs on
    // demand only, not from BENCHMARK.json: on a shared host its wall
    // time swings by more than the bounds allow (README.md, "Steadiness").
    {.name = "rbr_twolf",
     .benchmark = "TWOLF",
     .pentium4 = false,
     .nominal_session_ms = 215.0},
    // Rating-statistics-bound: the consultant abandons CBR, then MBR,
    // and finishes on RBR, so every rater and the fallback run.
    {.name = "chain_equake",
     .benchmark = "EQUAKE",
     .pentium4 = true,
     .nominal_session_ms = 690.0},
    // Short crash-safe session: profile run plus forked rating workers,
    // journal and rating-cache appends.
    {.name = "isolated_swim",
     .benchmark = "SWIM",
     .pentium4 = false,
     .isolate_workers = 2,
     .nominal_session_ms = 40.0},
};

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

std::string Scenario::journal_path() const {
  return workdir + "/session.journal.jsonl";
}

std::string Scenario::cache_path() const {
  return workdir + "/session.cache.jsonl";
}

Scenario make_scenario(const WorkloadSpec& spec, std::string workdir) {
  Scenario s;
  s.spec = &spec;
  s.workload = workloads::make_workload(spec.benchmark);
  if (!s.workload)
    throw std::runtime_error("unknown benchmark " +
                             std::string(spec.benchmark));
  (void)s.workload->function();  // the IR model is built lazily
  s.machine = spec.pentium4 ? sim::pentium4() : sim::sparc2();
  s.workdir = std::move(workdir);
  return s;
}

core::PeakOptions session_options(const Scenario& s, std::uint64_t seed,
                                  bool in_process) {
  core::PeakOptions options;
  options.seed = seed;
  options.driver.search_threads = kSearchThreads;
  if (!in_process && s.spec->isolate_workers > 0) {
    options.driver.isolate_workers = s.spec->isolate_workers;
    options.driver.fault.journal_path = s.journal_path();
  }
  return options;
}

void reset_session_files(const Scenario& s) {
  if (s.spec->isolate_workers == 0) return;
  std::filesystem::remove(s.journal_path());
  std::filesystem::remove(s.cache_path());
}

core::MethodRun run_session(const Scenario& s, std::uint64_t seed,
                            bool in_process) {
  core::PeakOptions options = session_options(s, seed, in_process);
  std::optional<core::RatingCache> cache;  // must outlive `peak`
  if (s.spec->isolate_workers > 0 && !in_process) {
    cache.emplace(s.cache_path());
    options.driver.rating_cache = &*cache;
  }
  core::Peak peak(s.machine, options);
  return peak.tune_with_consultant(*s.workload);
}

std::uint64_t trace_seed(const Scenario& s, std::uint64_t seed) {
  return support::hash_combine(
      seed, support::stable_hash(s.workload->benchmark()));
}

std::string fingerprint(const core::MethodRun& run) {
  char numbers[256];
  std::snprintf(numbers, sizeof numbers, "%a %zu %a %zu %a %a",
                run.cost.simulated_time, run.cost.invocations,
                run.cost.program_runs, run.cost.configs_evaluated,
                run.exhausted_fraction, run.ref_improvement_pct);
  return std::string(rating::to_string(run.method)) + " " +
         workloads::to_string(run.tuned_on) + " " + run.best_config.key() +
         " " + numbers;
}

bool same_run(const core::MethodRun& a, const core::MethodRun& b) {
  return fingerprint(a) == fingerprint(b);
}

std::string check_run(const core::MethodRun& run, std::size_t space_size) {
  if (!(std::isfinite(run.cost.simulated_time) &&
        run.cost.simulated_time > 0.0))
    return "tuning cost is not a positive number of cycles";
  if (run.cost.configs_evaluated == 0) return "no configuration was rated";
  if (run.cost.invocations == 0) return "no invocation was consumed";
  if (!std::isfinite(run.ref_improvement_pct) ||
      run.ref_improvement_pct <= -100.0)
    return "ref improvement is not a finite speedup";
  if (!(run.exhausted_fraction >= 0.0 && run.exhausted_fraction <= 1.0))
    return "exhausted fraction outside [0, 1]";
  if (run.best_config.size() != space_size)
    return "best configuration does not span the flag space";
  return {};
}

std::size_t oracle_mismatches(const Scenario& s, std::uint64_t seed) {
  const ir::Function& fn = s.workload->function();
  const workloads::Trace train =
      s.workload->trace(workloads::DataSet::kTrain, trace_seed(s, seed));
  const sim::MachineCostModel cost(s.machine);
  const ir::BytecodeProgram program = ir::BytecodeProgram::compile(fn, cost);
  ir::BytecodeVm vm(program);
  const ir::Interpreter interpreter(fn);
  std::size_t mismatches = 0;
  for (const sim::Invocation& inv : train.invocations) {
    ir::Memory vm_memory = ir::Memory::for_function(fn);
    ir::Memory tree_memory = ir::Memory::for_function(fn);
    inv.bind(vm_memory);
    inv.bind(tree_memory);
    const ir::RunResult a = vm.run(vm_memory);
    const ir::RunResult b = interpreter.run(tree_memory, cost);
    const bool same = same_bits(a.cycles, b.cycles) &&
                      a.block_entries == b.block_entries &&
                      a.counters == b.counters && a.steps == b.steps &&
                      same_image(vm_memory, tree_memory);
    if (!same) ++mismatches;
  }
  return mismatches;
}

}  // namespace tunebench
