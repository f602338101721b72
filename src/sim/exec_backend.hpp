#pragma once

/// \file exec_backend.hpp
/// Simulated execution of one tuning section. An Invocation binds a
/// concrete workload (context-variable values plus memory contents); the
/// backend prices it by interpreting the IR under the machine cost model,
/// scaling by the flag-effect multiplier of the code version, a cache
/// warmth factor, and measurement noise. It also implements the RBR
/// re-execution protocol (basic and improved, Section 2.4) with faithful
/// overhead accounting, which the tuning-time experiments (Figure 7 c,d)
/// read back.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/injector.hpp"
#include "ir/bytecode.hpp"
#include "ir/interpreter.hpp"
#include "search/opt_config.hpp"
#include "sim/cache_model.hpp"
#include "sim/flag_effects.hpp"
#include "sim/machine.hpp"
#include "sim/perturbation.hpp"

namespace peak::sim {

/// One dynamic invocation of the tuning section.
struct Invocation {
  /// Unique id within the trace (> 0). The interpreter result of an
  /// invocation is deterministic given its binder, so repeated passes over
  /// a trace (tuning cycles, whole-program trials) reuse the base run even
  /// for data-dependent sections. 0 = never reuse.
  std::uint64_t id = 0;
  /// Context-variable values (the CBR key; also the base-run cache key for
  /// sections whose execution path is fully determined by the context).
  std::vector<double> context;
  /// Populate the memory image (scalars, arrays, pointer bindings).
  std::function<void(ir::Memory&)> bind;
  /// True when `context` fully determines the execution path, so the
  /// interpreter result can be reused across invocations with equal
  /// context. Irregular sections (data-dependent control flow) set false.
  bool context_determines_time = true;
  /// Data-dependent execution-speed factor of this invocation (cache and
  /// branch behaviour of this particular input). Unlike measurement noise
  /// it is a property of the *workload*, so two executions under the same
  /// restored context share it — which is precisely why RBR's
  /// within-invocation ratio cancels it while MBR's regression sees it as
  /// unexplained residual (the "highly irregular behavior" that sends the
  /// integer codes to RBR in Table 1).
  double irregularity = 1.0;
};

struct InvocationResult {
  double time = 0.0;  ///< simulated cycles, noise included
  /// Instrumentation counters. Shared with the backend's base-run cache
  /// (counters are a function of the invocation's data, not of the flag
  /// configuration), so repeated invocations under different configs do
  /// not copy the vector. Never null after invoke(). Do not mutate.
  std::shared_ptr<const std::vector<std::uint64_t>> counters;
  /// Digest of the post-run Modified_Input memory effects. Equals
  /// reference_digest(inv) for a correct code version; an injected
  /// miscompile corrupts it, which is how the guarded executor's
  /// validation step detects wrong-answer configurations.
  std::uint64_t output_digest = 0;
};

/// Which engine executes base runs. Both produce bit-identical results
/// (enforced by tests/test_ir_bytecode.cpp); the tree-walker is kept as
/// the reference oracle and for debugging.
enum class ExecEngine {
  kBytecode,    ///< compiled dispatch loop (default)
  kTreeWalker,  ///< recursive ir::Interpreter
};

struct RbrOptions {
  /// Improved method (Section 2.4.2): precondition run, order swapping,
  /// and Modified_Input-only save/restore. Basic method otherwise.
  bool improved = true;
  /// Batch several measurement pairs into one invocation's checkpoint
  /// cycle — the paper's "combination of a number of experimental runs
  /// into a batch" overhead reduction. 1 = no batching.
  std::size_t batch_pairs = 1;
};

struct RbrPairResult {
  double time_best = 0.0;  ///< timed run of the current best version
  double time_exp = 0.0;   ///< timed run of the experimental version
  /// Tuning overhead beyond a production execution of the best version:
  /// save/restore traffic, the precondition run, and the extra version.
  double overhead = 0.0;
  bool swapped = false;  ///< experimental version ran first
};

/// Simulated-cycle cost of a span of work, per phase, plus RBR
/// checkpoint traffic tallies — the tuning cost the obs layer exports.
/// A backend keeps one since construction or its last reset_costs(); a
/// batch member rates on a freshly reset clone, so its record is exactly
/// the member's cost, and the driver sums the merged members' records
/// with +=.
struct Costs {
  double accumulated = 0.0;   ///< every phase below: the tuning cost
  double timed = 0.0;         ///< production-like and experimental runs
  double precondition = 0.0;  ///< untimed cache-warming runs
  double checkpoint = 0.0;    ///< save/restore traffic
  /// Cycles lost to injected faults: partial crashed runs, hang time up
  /// to the watchdog deadline.
  double faulted = 0.0;
  /// Backoff waits before re-measurements (charge_retry), separated
  /// from `faulted` so the ledger can report retry cost on its own.
  double retry = 0.0;
  std::uint64_t saves = 0;
  std::uint64_t restores = 0;
  std::uint64_t checkpoint_bytes = 0;  ///< total bytes saved + restored

  Costs& operator+=(const Costs& d);
};

/// Thread-compatibility: a backend is confined to one thread at a time
/// (no internal locking). Concurrent evaluation uses one clone per worker
/// slot — clones share only `fn`/`effects` (const) — and each hands its
/// costs() back to the caller, which merges them.
class SimExecutionBackend {
public:
  SimExecutionBackend(const ir::Function& fn, TsTraits traits,
                      const MachineModel& machine,
                      const FlagEffectModel& effects, std::uint64_t seed);

  /// Non-copyable: the VM holds a pointer into the member program.
  SimExecutionBackend(const SimExecutionBackend&) = delete;
  SimExecutionBackend& operator=(const SimExecutionBackend&) = delete;

  /// Production-like execution of one invocation under `cfg`.
  InvocationResult invoke(const search::FlagConfig& cfg,
                          const Invocation& inv);

  /// RBR: both versions executed within this single invocation, same
  /// context (paper Figures 3 and 4).
  RbrPairResult invoke_rbr_pair(const search::FlagConfig& best,
                                const search::FlagConfig& exp,
                                const Invocation& inv,
                                const RbrOptions& opts);

  /// Batched RBR: `opts.batch_pairs` measurement pairs under one
  /// invocation, amortizing the save and precondition work. Returns one
  /// result per pair; the shared overhead is attributed to the first.
  std::vector<RbrPairResult> invoke_rbr_batch(
      const search::FlagConfig& best, const search::FlagConfig& exp,
      const Invocation& inv, const RbrOptions& opts);

  /// Configure checkpoint sizes (from analysis::InputSetInfo) used to
  /// price RBR save/restore traffic.
  void set_checkpoint_bytes(std::size_t full_input_bytes,
                            std::size_t modified_input_bytes) {
    full_input_bytes_ = full_input_bytes;
    modified_input_bytes_ = modified_input_bytes;
  }

  /// Noise-free expected execution time under `cfg` for one invocation —
  /// the ground truth the consistency experiments compare ratings against.
  double expected_time(const search::FlagConfig& cfg, const Invocation& inv);

  /// Layer a fault injector onto this backend (nullptr = fault-free).
  /// With an injector installed, invoke() and the RBR entry points may
  /// throw fault::FaultError subclasses or report corrupted results, per
  /// the injector's verdict for (config, invocation, attempt). The
  /// fault-free path is bit-identical to a backend without an injector:
  /// fault checks consume no randomness.
  void set_fault_injector(const fault::FaultInjector* injector) {
    injector_ = injector;
  }
  [[nodiscard]] const fault::FaultInjector* fault_injector() const {
    return injector_;
  }

  /// Retry attempt number the next invocation runs under (the guarded
  /// executor bumps this so transient faults can clear on retry).
  void set_fault_attempt(std::size_t attempt) { fault_attempt_ = attempt; }

  /// Process-level attempt number (the worker supervisor bumps this when
  /// it respawns a crashed worker and requeues its task). A hard-crash
  /// verdict is re-queried with this attempt before aborting, so a
  /// transient hard crash fires only in the first worker process and the
  /// respawned retry survives — while a deterministic one aborts every
  /// attempt until the supervisor gives up and quarantines the config.
  void set_process_attempt(std::size_t attempt) {
    process_attempt_ = attempt;
  }

  /// Arm the watchdog deadline: an injected hang charges this many cycles
  /// and surfaces as fault::DeadlineExceeded instead of never returning.
  /// 0 disarms the watchdog (hangs then throw fault::HangFault).
  void set_deadline_cycles(double cycles) { deadline_cycles_ = cycles; }
  [[nodiscard]] double deadline_cycles() const { return deadline_cycles_; }

  /// Charge tuning overhead that did not come from a simulated run to the
  /// retry phase — backoff waits before a re-measurement, which the cost
  /// ledger reports separately from cycles lost to the faults themselves.
  void charge_retry(double cycles) { charge(costs_.retry, cycles); }

  /// Digest of the reference (correct) post-run memory effects for this
  /// invocation — what validation compares an experimental version's
  /// InvocationResult::output_digest against.
  std::uint64_t reference_digest(const Invocation& inv) {
    return base_run(inv).digest;
  }

  /// Reset the measurement stream to a pure function of `seed`: reseed
  /// the noise RNG, drop cache warmth to cold, and reset the RBR swap
  /// order. Batched evaluation calls this at the start of every candidate
  /// rating, which makes the rating a function of (seed, base, cfg) alone
  /// — independent of which backend clone runs it and of everything that
  /// clone measured before. Cost tallies are left untouched (the caller
  /// resets them with reset_costs()).
  void reset_measurement_stream(std::uint64_t seed) {
    noise_.rng().reseed(seed);
    warmth_.set_warmth(0.0);
    swap_toggle_ = false;
  }

  /// Everything this backend executed since construction or the last
  /// reset_costs() (timed runs, preconditioning, save/restore, faults);
  /// `accumulated` is the tuning cost.
  [[nodiscard]] const Costs& costs() const { return costs_; }
  void reset_costs() { costs_ = Costs{}; }

  [[nodiscard]] const ir::Function& function() const { return fn_; }
  [[nodiscard]] TsTraits& traits() { return traits_; }
  [[nodiscard]] const MachineModel& machine() const { return machine_; }

  /// The production workload changed scale (an application phase change):
  /// flag effects may flip, so cached multipliers are invalidated.
  void set_workload_scale(double scale) {
    traits_.workload_scale = scale;
    mult_cache_.clear();
  }

  /// Select the base-run execution engine. The switch exists so tests can
  /// cross-check the engines against each other; production paths keep the
  /// bytecode default.
  void set_engine(ExecEngine engine) { engine_ = engine; }
  [[nodiscard]] ExecEngine engine() const { return engine_; }

private:
  struct BaseRun {
    double cycles = 0.0;
    /// Shared with every InvocationResult derived from this base run.
    std::shared_ptr<const std::vector<std::uint64_t>> counters;
    /// FNV-1a over the post-run memory image (the reference output).
    std::uint64_t digest = 0;
  };

  /// Hashed multiplier-cache key: flag bitset words plus (only when the
  /// effect model is context-sensitive for this section) the raw context
  /// values. Replaces string concatenation of FlagConfig::key() and
  /// std::to_string(double) on the per-invocation hot path.
  struct MultKey {
    std::vector<std::uint64_t> flag_words;
    std::vector<double> context;
    bool operator==(const MultKey&) const = default;
  };
  struct MultKeyHash {
    std::size_t operator()(const MultKey& k) const;
  };

  /// Returns the interpreter result for this invocation's data under the
  /// machine cost model, independent of flags/noise/warmth.
  ///
  /// Caching contract: results are memoized by context when
  /// `context_determines_time`, else by non-zero `id`. An invocation with
  /// `id == 0 && !context_determines_time` is *uncacheable* and re-executes
  /// on every call — deliberate for one-shot probes, silent waste when a
  /// trace producer forgets to assign ids. The obs counters
  /// `sim.base_cache.{hit,miss,uncacheable}` make the split visible;
  /// tests assert Table-1 workload traces never take the uncacheable path.
  const BaseRun& base_run(const Invocation& inv);
  double multiplier(const search::FlagConfig& cfg, const Invocation& inv);
  /// Injector verdict for this (config, invocation) under the current
  /// retry attempt; kNone when no injector is installed.
  fault::FaultKind fault_kind(const search::FlagConfig& cfg,
                              const Invocation& inv) const;
  /// Price and raise an injected crash/hang/checkpoint fault. `nominal`
  /// is the noise-free expected duration of the faulted run. Fault paths
  /// deliberately consume no randomness: a retried transient fault
  /// resumes the noise stream exactly where a fault-free run would be.
  [[noreturn]] void raise_fault(fault::FaultKind kind,
                                const search::FlagConfig& cfg,
                                const Invocation& inv, double nominal);
  double checkpoint_cost(std::size_t bytes) const;
  double timed_run(const BaseRun& base, double mult, double irregularity,
                   bool precondition = false);
  /// Price a checkpoint save/restore: accumulates time, attributes it to
  /// the checkpoint phase, and (restore only) resets cache warmth.
  double charge_save(std::size_t bytes);
  double charge_restore(std::size_t bytes);
  /// Add `cycles` to the total and to one phase of costs_.
  void charge(double& phase, double cycles) {
    costs_.accumulated += cycles;
    phase += cycles;
  }

  const ir::Function& fn_;
  TsTraits traits_;
  /// By value: machine models are small and callers often pass
  /// temporaries (sparc2(), pentium4()).
  MachineModel machine_;
  const FlagEffectModel& effects_;
  ir::Interpreter interp_;
  MachineCostModel cost_model_;
  /// fn_ lowered once against cost_model_ (which is fixed per backend);
  /// every base run reuses the compiled program.
  ir::BytecodeProgram program_;
  ir::BytecodeVm vm_;
  ExecEngine engine_ = ExecEngine::kBytecode;
  Perturbation noise_;
  WarmthModel warmth_;

  std::map<std::vector<double>, BaseRun> base_cache_;
  std::map<std::uint64_t, BaseRun> base_cache_by_id_;
  std::unordered_map<MultKey, double, MultKeyHash> mult_cache_;
  BaseRun scratch_base_;
  /// Pooled memory image for base-run cache misses: reset() reuses the
  /// buffers instead of reallocating the vector-of-vectors per miss.
  ir::Memory pool_memory_;

  std::size_t full_input_bytes_ = 4096;
  std::size_t modified_input_bytes_ = 1024;
  Costs costs_;
  bool swap_toggle_ = false;

  const fault::FaultInjector* injector_ = nullptr;
  std::size_t fault_attempt_ = 0;
  std::size_t process_attempt_ = 0;
  double deadline_cycles_ = 0.0;
};

}  // namespace peak::sim
