#pragma once

/// \file session.hpp
/// The benchmark's workloads and PEAK's production tuning session on
/// them: `core::Peak(machine, {seed, driver}).tune_with_consultant(w)`,
/// what `peak tune --benchmark B --machine M` runs. Also the output
/// checks every session goes through.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/peak.hpp"
#include "sim/machine.hpp"
#include "workloads/workload.hpp"

namespace tunebench {

using namespace peak;

/// Search slots of every session: two beside the driver thread, which
/// fits a 4-vCPU host.
inline constexpr unsigned kSearchThreads = 2;

/// One workload: a single tuning section on one machine, with the
/// session's rating transport. README.md records why each was chosen.
struct WorkloadSpec {
  std::string_view name;       ///< --workload value
  std::string_view benchmark;  ///< workloads::make_workload name
  bool pentium4 = false;       ///< machine: p4, else sparc2
  /// Forked rating workers (proc::Supervisor), 0 = in-process. A session
  /// with workers is crash-safe: it gets a fresh journal and rating cache.
  unsigned isolate_workers = 0;
  /// Session wall on a 4-vCPU host, used only to size a run: a run
  /// tunes round(seconds · 1000 / nominal_session_ms) sessions.
  double nominal_session_ms = 0.0;
};

/// Null when `name` is not one of the benchmark's workloads.
const WorkloadSpec* find_workload(std::string_view name);

/// Everything a session reads that is built before the first session:
/// the workload (IR model) and the machine model.
struct Scenario {
  const WorkloadSpec* spec = nullptr;
  std::unique_ptr<workloads::Workload> workload;
  sim::MachineModel machine;
  /// Directory for crash-safe sessions' journal and rating cache.
  std::string workdir;

  [[nodiscard]] std::string journal_path() const;
  [[nodiscard]] std::string cache_path() const;
};

/// Builds the workload's IR model and the machine model.
Scenario make_scenario(const WorkloadSpec& spec, std::string workdir);

/// The driver options of a session with this seed. `in_process` swaps
/// forked workers for pool threads and drops the journal and cache —
/// the reference a crash-safe session must reproduce bit for bit.
core::PeakOptions session_options(const Scenario& s, std::uint64_t seed,
                                  bool in_process = false);

/// Deletes a crash-safe session's journal and rating cache, so the next
/// session starts from fresh files. Not part of the timed session.
void reset_session_files(const Scenario& s);

/// One production tuning session. For crash-safe workloads the rating
/// cache is opened inside the session, as `peak tune --rating-cache`
/// does before tuning.
core::MethodRun run_session(const Scenario& s, std::uint64_t seed,
                            bool in_process = false);

/// Seed of the workload's train and ref traces in a session with this
/// seed, derived as Peak::tune_with_consultant derives it.
std::uint64_t trace_seed(const Scenario& s, std::uint64_t seed);

/// A session's outcome as one line of text: method, dataset, best
/// configuration, cost, exhausted fraction and ref improvement, with
/// every double in hex so that equal lines mean bit-equal outcomes.
std::string fingerprint(const core::MethodRun& run);

/// Bit-exact equality of two sessions' outcomes.
bool same_run(const core::MethodRun& a, const core::MethodRun& b);

/// Empty when `run` is a well-formed session result (finite positive
/// cost, at least one configuration rated, a finite ref improvement,
/// a best configuration over the whole flag space); else the reason.
std::string check_run(const core::MethodRun& run, std::size_t space_size);

/// ir::BytecodeVm against the tree-walking ir::Interpreter on every
/// train invocation of the trace for `seed`: RunResult and the memory
/// image must match exactly. Returns the number of mismatches.
std::size_t oracle_mismatches(const Scenario& s, std::uint64_t seed);

}  // namespace tunebench
