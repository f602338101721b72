#pragma once

/// \file profile.hpp
/// The profile run (paper Sections 2.2–3): before tuning, PEAK runs the
/// application once on the training input with full instrumentation to
/// learn what the static analyses cannot know — the number of distinct
/// contexts, whether array-content context variables are run-time
/// constants, the per-invocation basic-block counts that the component
/// analysis merges into the MBR model, the average component counts
/// (C_avg) and the dominant component. The Rating Approach Consultant
/// turns these facts into the per-section method decision.

#include <cstdint>
#include <map>

#include "analysis/component_analysis.hpp"
#include "ir/range_analysis.hpp"
#include "analysis/context_analysis.hpp"
#include "analysis/input_sets.hpp"
#include "analysis/runtime_constants.hpp"
#include "analysis/ts_partitioner.hpp"
#include "rating/consultant.hpp"
#include "rating/mbr.hpp"
#include "sim/machine.hpp"
#include "workloads/workload.hpp"

namespace peak::core {

struct ProfileOptions {
  /// Invocations profiled in full detail (block counts, content hashes).
  std::size_t detailed_invocations = 48;
  /// Invocations scanned for context counting (bounded for huge traces).
  std::size_t context_scan_limit = 4000;
  analysis::ComponentModelOptions components{
      .max_components = 8,
      .affine_tolerance = 1e-9,
      .small_block_fraction = 0.08,
  };
  /// MBR is rejected when the component model leaves more than this
  /// fraction of the profiled time variance unexplained (SSres/SStot).
  /// Irregular codes — whose speed depends on data the counters cannot
  /// see — fail this gate, which is how the integer benchmarks end up on
  /// RBR in Table 1.
  double mbr_profile_var_threshold = 0.005;

  friend bool operator==(const ProfileOptions&,
                         const ProfileOptions&) = default;
};

struct ProfileData {
  // --- static analyses -----------------------------------------------------
  analysis::ContextAnalysisResult context_analysis;
  analysis::InputSetInfo input_sets;
  analysis::RbrScreenResult rbr_screen;
  /// Observed bounds of scalar parameters (seeds the range analysis).
  std::map<ir::VarId, ir::Interval> param_bounds;
  /// RBR checkpoint narrowed by symbolic range analysis (§2.4.2).
  analysis::CheckpointPlan checkpoint_plan;

  // --- dynamic facts from the profile run ----------------------------------
  std::size_t num_contexts = 0;        ///< distinct context keys observed
  std::size_t invocations_per_run = 0; ///< trace length
  bool array_contents_constant = true; ///< run-time-constant check verdict
  analysis::ComponentModel components;
  rating::MbrProfile mbr_profile;
  double avg_invocation_cycles = 0.0;
  double run_total_cycles = 0.0;

  // --- the consultant's verdict --------------------------------------------
  rating::MethodDecision decision;

  /// True CBR applicability after the run-time-constant check.
  [[nodiscard]] bool cbr_applicable() const {
    return context_analysis.cbr_applicable && array_contents_constant;
  }
};

/// Run the profile pass for one workload on the given dataset.
ProfileData profile_workload(const workloads::Workload& workload,
                             const workloads::Trace& trace,
                             const sim::MachineModel& machine,
                             const ProfileOptions& options = {});

}  // namespace peak::core
