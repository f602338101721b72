#include "core/profile.hpp"

#include <map>
#include <set>

#include "analysis/instrumentation.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/timer.hpp"
#include "stats/regression.hpp"
#include "ir/bytecode.hpp"
#include "ir/interpreter.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace peak::core {

namespace {

/// Order-insensitive hash of an array's contents.
std::uint64_t hash_array(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    h = support::hash_combine(h, bits);
  }
  return h;
}

}  // namespace

ProfileData profile_workload(const workloads::Workload& workload,
                             const workloads::Trace& trace,
                             const sim::MachineModel& machine,
                             const ProfileOptions& options) {
  ProfileData data;
  const ir::Function& fn = workload.function();

  obs::ScopedSpan profile_span("profile", "profile");
  if (profile_span.active())
    profile_span.add(obs::attr("section", workload.full_name()));

  // The profile phase charges the ledger at the section level — a
  // sibling of the per-method subtrees tune() builds, since profiling
  // happens once before any rating method runs.
  obs::AttributionScope machine_scope(machine.name);
  obs::AttributionScope benchmark_scope(workload.benchmark());
  obs::AttributionScope section_scope(workload.ts_name());
  runtime::WallTimer profile_wall;
  profile_wall.start();

  // --- static compiler analyses -------------------------------------------
  {
    obs::ScopedSpan span("static_analysis", "profile");
    data.context_analysis = analysis::analyze_context_variables(fn);
    data.input_sets = analysis::analyze_input_sets(fn);
    data.rbr_screen = analysis::screen_for_rbr(fn);
    data.invocations_per_run = trace.invocations.size();
  }

  // --- context census over the (bounded) trace ------------------------------
  {
    obs::ScopedSpan span("context_census", "profile");
    std::set<std::vector<double>> distinct;
    const std::size_t limit =
        std::min(options.context_scan_limit, trace.invocations.size());
    for (std::size_t i = 0; i < limit; ++i)
      distinct.insert(trace.invocations[i].context);
    data.num_contexts = distinct.size();
  }

  // --- detailed pass: block counts, content hashes, cycle costs -------------
  const sim::MachineCostModel cost(machine);
  std::vector<std::vector<std::uint64_t>> block_profiles;
  std::vector<double> observed_times;  ///< cycles × data irregularity
  double profiled_cycles = 0.0;        ///< detailed-pass simulated cost

  {
  obs::ScopedSpan span("detailed_pass", "profile");
  const ir::Function instrumented = analysis::instrument_all_blocks(fn);
  // Compiled once, executed per detailed invocation: the profiling pass is
  // the second-hottest interpreter client after the simulation backend.
  const ir::BytecodeProgram program =
      ir::BytecodeProgram::compile(instrumented, cost);
  ir::BytecodeVm vm(program);
  std::map<ir::VarId, std::set<std::uint64_t>> content_hashes;
  double total_cycles = 0.0;
  // Where the context fixes the execution path (the contract the sim
  // backend's base-run cache keys on), an invocation's cycles and block
  // counts are those of the first one with its context, which ran the VM.
  struct ContextRun {
    double cycles;
    std::size_t profile;  ///< its entry in block_profiles
  };
  std::map<std::vector<double>, ContextRun> run_of_context;
  std::size_t vm_runs = 0;

  const std::size_t detailed =
      std::min(options.detailed_invocations, trace.invocations.size());
  ir::Memory memory = ir::Memory::for_function(instrumented);
  for (std::size_t i = 0; i < detailed; ++i) {
    const sim::Invocation& inv = trace.invocations[i];
    // Bound even when the run is reused: the bounds and hashes below read
    // every invocation's image.
    inv.bind(memory);

    // Observed parameter bounds seed the symbolic range analysis.
    for (ir::VarId p : fn.params()) {
      if (fn.var(p).kind != ir::VarKind::kScalar) continue;
      const double value = memory.scalar(p);
      auto [it, inserted] =
          data.param_bounds.emplace(p, ir::Interval::constant(value));
      if (!inserted)
        it->second = ir::hull(it->second, ir::Interval::constant(value));
    }

    // Run-time-constant check for array-content context variables
    // *before* execution mutates anything.
    for (const analysis::ContextVar& cv :
         data.context_analysis.context_vars) {
      if (cv.kind != analysis::ContextVarKind::kArrayContent) continue;
      if (cv.via_pointer) continue;  // resolved at bind time; skip hashing
      content_hashes[cv.var].insert(hash_array(memory.array(cv.var)));
    }

    double cycles = 0.0;
    const auto seen = inv.context_determines_time
                          ? run_of_context.find(inv.context)
                          : run_of_context.end();
    if (seen != run_of_context.end()) {
      cycles = seen->second.cycles;
      block_profiles.push_back(block_profiles[seen->second.profile]);
    } else {
      ir::RunResult run = vm.run(memory);
      ++vm_runs;
      cycles = run.cycles;
      if (inv.context_determines_time)
        run_of_context.emplace(inv.context,
                               ContextRun{cycles, block_profiles.size()});
      // counters hold per-block entries (counter_id == BlockId).
      block_profiles.push_back(std::move(run.counters));
    }
    total_cycles += cycles;
    observed_times.push_back(cycles * inv.irregularity);
  }
  if (span.active()) {
    span.add(obs::attr("invocations", detailed));
    span.add(obs::attr("vm_runs", vm_runs));
  }

  for (const auto& [var, hashes] : content_hashes) {
    if (hashes.size() > 1) {
      data.array_contents_constant = false;
      break;
    }
  }

  if (detailed > 0) {
    data.avg_invocation_cycles = total_cycles / static_cast<double>(detailed);
    data.run_total_cycles = data.avg_invocation_cycles *
                            static_cast<double>(trace.invocations.size());
  }
  profiled_cycles = total_cycles;
  }  // detailed_pass span

  // --- component analysis for MBR -------------------------------------------
  {
  obs::ScopedSpan span("component_analysis", "profile");
  data.components =
      analysis::analyze_components(fn, block_profiles, options.components);

  // Gate: the model must explain the *observed* times, not just the
  // deterministic cycle counts. Irregular codes leave a large residual.
  if (data.components.mbr_applicable && !block_profiles.empty()) {
    const std::size_t ncomp = data.components.num_components();
    stats::Matrix design(block_profiles.size(), ncomp);
    for (std::size_t r = 0; r < block_profiles.size(); ++r) {
      const std::vector<double> row =
          data.components.count_row(block_profiles[r]);
      for (std::size_t c = 0; c < ncomp; ++c) design(r, c) = row[c];
    }
    const stats::RegressionResult fit =
        stats::least_squares_nonneg(design, observed_times);
    if (!fit.ok) {
      data.components.mbr_applicable = false;
      data.components.failure_reason = "profile regression is degenerate";
    } else if (fit.var_ratio() > options.mbr_profile_var_threshold) {
      data.components.mbr_applicable = false;
      data.components.failure_reason =
          "component model leaves " +
          std::to_string(fit.var_ratio() * 100.0) +
          "% of profiled time variance unexplained (irregular code)";
    }
  }

  if (data.components.mbr_applicable) {
    // C_avg per component (constant column last), and the dominant
    // component by modelled time share.
    const std::size_t ncomp = data.components.num_components();
    std::vector<double> c_avg(ncomp, 0.0);
    std::vector<double> comp_cycles(ncomp, 0.0);
    for (const auto& row : block_profiles) {
      const std::vector<double> counts = data.components.count_row(row);
      for (std::size_t c = 0; c < ncomp; ++c) c_avg[c] += counts[c];
    }
    for (double& v : c_avg) v /= static_cast<double>(block_profiles.size());

    // Per-component modelled time: Σ blocks cost·avg entries.
    std::vector<double> avg_entries(fn.num_blocks(), 0.0);
    for (const auto& row : block_profiles)
      for (std::size_t b = 0; b < fn.num_blocks(); ++b)
        avg_entries[b] += static_cast<double>(row[b]);
    for (double& v : avg_entries)
      v /= static_cast<double>(block_profiles.size());
    for (std::size_t c = 0; c < data.components.varying.size(); ++c)
      for (ir::BlockId b : data.components.varying[c].blocks)
        comp_cycles[c] += cost.block_entry_cost(fn, b) * avg_entries[b];
    for (ir::BlockId b : data.components.constant_blocks)
      comp_cycles[ncomp - 1] += cost.block_entry_cost(fn, b) * avg_entries[b];

    double total = 0.0;
    for (double v : comp_cycles) total += v;
    data.mbr_profile.c_avg = c_avg;
    for (std::size_t c = 0; c < ncomp; ++c) {
      if (total > 0.0 && comp_cycles[c] / total >= 0.90) {
        data.mbr_profile.dominant_component = c;
        break;
      }
    }
  }
  }  // component_analysis span

  // --- checkpoint plan: range-analysis-narrowed Modified_Input --------------
  {
    obs::ScopedSpan span("checkpoint_plan", "profile");
    const ir::RangeAnalysis ranges(fn, data.param_bounds);
    data.checkpoint_plan =
        analysis::plan_checkpoint(fn, data.input_sets, ranges);
  }

  // --- the consultant's decision ---------------------------------------------
  obs::ScopedSpan consultant_span("consultant", "profile");
  rating::ConsultantInputs in;
  in.cbr_context_scalars_only = data.cbr_applicable();
  in.num_contexts = data.num_contexts;
  in.invocations = trace.invocations.size();
  in.mbr_model_built = data.components.mbr_applicable;
  in.num_components = data.components.num_components();
  in.rbr_no_side_effects = data.rbr_screen.eligible;
  // Overhead estimation from the profile (orders the method chain by
  // estimated cost; the static CBR < MBR < RBR order is the usual result,
  // but extreme context counts or checkpoint sizes can reorder it).
  in.avg_invocation_cycles = data.avg_invocation_cycles;
  in.checkpoint_cycles =
      static_cast<double>(data.checkpoint_plan.bytes(fn)) /
      sizeof(double) * (machine.load_cost + machine.store_cost);
  in.counter_cycles =
      machine.counter_cost *
      static_cast<double>(data.components.varying.size());
  data.decision = rating::decide_rating_methods(in);

  // Cycles = the detailed pass's instrumented executions (the analyses
  // around it are pure compiler work — wall only); the gauge lets the
  // drift sentinel reconcile the ledger's profile phase on its own.
  obs::gauge("profile.cycles").add(profiled_cycles);
  obs::charge_phase("profile", profiled_cycles,
                    profile_wall.elapsed() * 1e6);
  return data;
}

}  // namespace peak::core
