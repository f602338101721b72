/// \file fault_tolerant_tuning.cpp
/// Tuning when configurations misbehave: some crash, some hang, some
/// silently compute wrong answers, some corrupt their RBR checkpoints.
/// This example injects all of that at a 10% per-config rate, tunes
/// straight through it behind the guarded executor, then kills the run
/// mid-search (by truncating its journal) and resumes to a bit-identical
/// outcome. It ends by showing what happens without the guard.
///
///   $ ./examples/fault_tolerant_tuning [SWIM|MGRID|EQUAKE|ART|...]

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/profile.hpp"
#include "core/tuning_driver.hpp"
#include "fault/injector.hpp"
#include "workloads/workload.hpp"

int main(int argc, char** argv) {
  using namespace peak;
  const std::string benchmark = argc > 1 ? argv[1] : "SWIM";

  const auto workload = workloads::make_workload(benchmark);
  if (!workload) {
    std::cerr << "unknown benchmark '" << benchmark << "'\n";
    return 1;
  }
  const sim::MachineModel machine = sim::sparc2();
  const sim::FlagEffectModel effects(search::gcc33_o3_space());
  const workloads::Trace train =
      workload->trace(workloads::DataSet::kTrain, /*seed=*/42);
  const core::ProfileData profile =
      core::profile_workload(*workload, train, machine);

  // A hostile flag space: 10% of configurations fault — crashes, hangs,
  // miscompiles, timer glitches, checkpoint corruption, a mix of
  // deterministic and transient. Same seed, same faults, every run.
  fault::FaultModel model;
  model.fault_prob = 0.10;
  model.seed = 2026;
  fault::FaultInjector injector(model);
  injector.exempt(search::o3_config(effects.space()));  // -O3 ships fine

  std::cout << "Tuning " << workload->full_name()
            << " with 10% of configs faulty (guarded, journaled)\n\n";

  const std::string journal = "fault_demo_journal.jsonl";
  std::remove(journal.c_str());

  core::DriverOptions options;
  options.fault.injector = &injector;
  options.fault.journal_path = journal;
  core::TuningDriver driver(*workload, profile, train, machine, effects,
                            options);
  const core::TuningOutcome outcome = driver.tune_auto();

  std::printf("Winner (flags removed from -O3): %s\n",
              outcome.best_config
                  .describe(effects.space(), /*invert=*/true)
                  .c_str());
  std::printf("Cost: %zu invocations (%.1f program runs)\n\n",
              outcome.cost.invocations, outcome.cost.program_runs);

  std::printf("Quarantined %zu configurations along the way:\n",
              driver.quarantine().size());
  for (const auto& [key, entry] : driver.quarantine().entries()) {
    if (!entry.quarantined) continue;
    std::printf("  %s  %s after %zu failure(s)\n", key.c_str(),
                fault::to_string(entry.kind), entry.failures);
  }

  // --- Crash-safe resume -------------------------------------------------
  // Pretend the process died mid-search: keep the first half of the
  // journal (plus the partial line it was writing) and resume. The
  // replayed half merges the recorded rating deltas (ratings, quarantine
  // counts, costs); the live half re-runs with the same injected faults.
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  {
    std::ofstream out(journal);
    for (std::size_t i = 0; i < 1 + (lines.size() - 1) / 2; ++i)
      out << lines[i] << '\n';
    out << "{\"type\":\"eval\",\"ba";  // the write the kill interrupted
  }
  std::printf("\nKilled the run at journal line %zu of %zu; resuming...\n",
              1 + (lines.size() - 1) / 2, lines.size());

  core::DriverOptions resume_options = options;
  resume_options.fault.resume = true;
  core::TuningDriver resumed(*workload, profile, train, machine, effects,
                             resume_options);
  const core::TuningOutcome replayed = resumed.tune_auto();
  std::printf("Resumed outcome %s the original (winner %s, %zu "
              "invocations)\n",
              replayed == outcome ? "bit-identically matches"
                                  : "DIVERGED from",
              replayed.best_config == outcome.best_config ? "same"
                                                          : "different",
              replayed.cost.invocations);

  // --- The blind spot ----------------------------------------------------
  // Same faults, no guard: only the rating windows' non-finite-sample
  // check is left, and the first fault that surfaces outside a window
  // kills the whole tuning run.
  std::cout << "\nSame faults without the guard:\n";
  core::DriverOptions unguarded = options;
  unguarded.fault.guard_execution = false;
  unguarded.fault.journal_path.clear();
  core::TuningDriver exposed(*workload, profile, train, machine, effects,
                             unguarded);
  try {
    (void)exposed.tune_auto();
    std::cout << "  ...survived (this workload got lucky)\n";
  } catch (const fault::FaultError& e) {
    std::printf("  tuning died: %s\n", e.what());
  }

  std::remove(journal.c_str());
  return 0;
}
