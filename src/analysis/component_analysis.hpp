#pragma once

/// \file component_analysis.hpp
/// MBR component analysis (paper Section 2.3). Every basic block is a
/// candidate component of the execution-time model T_TS = Σ T_b · C_b.
/// From a profile run's per-invocation block-entry counts, blocks whose
/// counts are affinely dependent on each other (C_b1 = α·C_b2 + β for all
/// observed invocations) are merged into one component; blocks with
/// constant counts fold into the constant component (which always exists,
/// with C_n = 1). The result is the compact model MBR fits at tuning time.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/function.hpp"

namespace peak::analysis {

struct ComponentModelOptions {
  /// MBR is skipped when the model needs more components than this — the
  /// regression would need too many invocations to converge (paper §2.3).
  std::size_t max_components = 8;
  /// A block folds into the existing components when its count series is
  /// a linear combination of theirs to within this relative tolerance.
  double affine_tolerance = 1e-7;
  /// Blocks whose total profiled entries fall below this fraction of the
  /// busiest block are treated as constant-overhead (the paper's "small
  /// workload in conditional statements" simplification).
  double small_block_fraction = 0.0;

  friend bool operator==(const ComponentModelOptions&,
                         const ComponentModelOptions&) = default;
};

struct Component {
  /// Blocks folded into this component (the representative plus blocks
  /// whose counts are linear combinations dominated by it).
  std::vector<ir::BlockId> blocks;
  ir::BlockId representative = ir::kNoBlock;  ///< count source
};

struct ComponentModel {
  /// Varying components, in representative-block order. The constant
  /// component is implicit and always last in count vectors.
  ///
  /// The merge criterion generalizes the paper's pairwise test
  /// C_b1 = α·C_b2 + β: the representatives form a *basis* of the count
  /// space, so every other block's count series is a linear combination
  /// of component counts (plus the constant). Folding it is sound because
  /// Σ_b T_b·C_b = Σ_i (Σ_b T_b·λ_bi)·C_i — the block's time spreads over
  /// the component times.
  std::vector<Component> varying;
  std::vector<ir::BlockId> constant_blocks;
  bool mbr_applicable = false;
  std::string failure_reason;

  /// Number of regression columns: varying components + the constant one.
  [[nodiscard]] std::size_t num_components() const {
    return varying.size() + 1;
  }

  /// Build the component-count row for one invocation from raw per-block
  /// entry counts (the trailing constant column is 1).
  [[nodiscard]] std::vector<double> count_row(
      std::span<const std::uint64_t> block_entries) const;
};

/// Derive the component model from profiled counts.
/// `profiles[j][b]` = entries of block b during invocation j.
ComponentModel analyze_components(
    const ir::Function& fn,
    const std::vector<std::vector<std::uint64_t>>& profiles,
    const ComponentModelOptions& options = {});

}  // namespace peak::analysis
