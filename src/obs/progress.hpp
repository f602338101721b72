#pragma once

/// \file progress.hpp
/// `peak top`: a live progress view over the metrics registry and the
/// cost ledger. A background thread samples both on an interval timer and
/// redraws a small dashboard — configs evaluated, rating convergence, the
/// cost split across ledger phases, and the most expensive tuning
/// sections so far. Sampling only reads (registry snapshot + ledger
/// snapshot under their mutexes), so the view never perturbs
/// measurements.
///
/// The pipeline is split into pure stages so every consumer shares one
/// derivation: build_progress_model() reduces the two snapshots to a
/// ProgressModel, which render_progress_frame() turns into the TTY frame,
/// write_progress_json() into the `/snapshot` + `--progress-json`
/// document, and the `peak monitor` client rebuilds from that JSON to
/// render the identical frame remotely.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"

namespace peak::obs {

/// Everything one dashboard frame shows, already aggregated. A pure
/// function of (metrics snapshot, ledger snapshot); serializable, so a
/// remote monitor renders exactly what a local `--progress` view would.
struct ProgressModel {
  std::uint64_t configs_evaluated = 0;
  std::uint64_t ratings_started = 0;
  std::uint64_t ratings_converged = 0;
  std::uint64_t invocations = 0;
  double total_cycles = 0.0;

  struct Phase {
    std::string name;
    double cycles = 0.0;
    friend bool operator==(const Phase&, const Phase&) = default;
  };
  /// Known ledger phases with non-zero cycles, in canonical phase order.
  std::vector<Phase> phases;

  struct Section {
    std::string label;  ///< machine/benchmark/section
    double cycles = 0.0;
    friend bool operator==(const Section&, const Section&) = default;
  };
  /// Every tuning section, most expensive first.
  std::vector<Section> sections;

  /// Out-of-process worker fleet (`--isolate-workers`), from the proc.*
  /// counters. All zero when the run never forked a worker — the JSON
  /// document then omits the member entirely, keeping pre-isolation
  /// consumers byte-compatible.
  struct Workers {
    std::uint64_t spawned = 0;
    std::uint64_t respawned = 0;
    std::uint64_t killed = 0;  ///< watchdog SIGTERM + SIGKILL escalations
    friend bool operator==(const Workers&, const Workers&) = default;
  };
  Workers workers;

  /// Distributed worker fleet (`--distribute` / `--workers`), from the
  /// dist.* counters. Same omit-when-empty contract as `workers`: all
  /// zero when the run never formed a fleet, and the JSON member is
  /// absent then.
  struct Dist {
    std::uint64_t workers_connected = 0;
    std::uint64_t workers_lost = 0;
    std::uint64_t workers_respawned = 0;
    std::uint64_t tasks_dispatched = 0;
    std::uint64_t tasks_requeued = 0;
    std::uint64_t tasks_failed = 0;
    std::uint64_t heartbeat_gaps = 0;
    friend bool operator==(const Dist&, const Dist&) = default;
  };
  Dist dist;

  friend bool operator==(const ProgressModel&,
                         const ProgressModel&) = default;
};

/// Reduce the two snapshots to the model (pure).
ProgressModel build_progress_model(const MetricsRegistry::Snapshot& metrics,
                                   const Ledger::Node& costs);

/// One frame of the dashboard (multi-line, trailing newline; pure).
std::string render_progress_frame(const ProgressModel& model);

/// Convenience overload: build + render.
std::string render_progress_frame(const MetricsRegistry::Snapshot& metrics,
                                  const Ledger::Node& costs);

/// The model as one JSON object (what /snapshot's "progress" member and
/// --progress-json carry).
void write_progress_json(const ProgressModel& model, std::ostream& os);
std::string progress_json(const ProgressModel& model);

/// Atomically replace `path` with the model's JSON (write to a sibling
/// temp file, then rename), so a reader never sees a torn document.
/// False on I/O failure.
bool write_progress_json_atomic(const ProgressModel& model,
                                const std::string& path);

class ProgressView {
public:
  struct Options {
    std::chrono::milliseconds interval{500};
    /// Destination stream; nullptr = std::cerr. Must outlive the view.
    std::ostream* out = nullptr;
    /// Redraw in place with ANSI cursor movement; off = append frames.
    bool ansi = true;
  };

  ProgressView();  ///< default Options
  explicit ProgressView(Options options);
  ~ProgressView();  ///< stops the ticker if still running

  ProgressView(const ProgressView&) = delete;
  ProgressView& operator=(const ProgressView&) = delete;

  void start();
  /// Stop the ticker and draw one final frame (so the numbers shown are
  /// the end-of-run ones, not the last tick's). Idempotent.
  void stop();

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// File-based monitoring without opening a port: a ticker thread
/// periodically rewrites one JSON file (atomically) with the current
/// ProgressModel — the same document the telemetry server serves.
class ProgressJsonWriter {
public:
  struct Options {
    std::string path;
    std::chrono::milliseconds interval{500};
  };

  explicit ProgressJsonWriter(Options options);
  ~ProgressJsonWriter();  ///< stops (and writes a final snapshot)

  ProgressJsonWriter(const ProgressJsonWriter&) = delete;
  ProgressJsonWriter& operator=(const ProgressJsonWriter&) = delete;

  void start();
  /// Stop the ticker and write one final end-of-run document. Idempotent.
  void stop();

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace peak::obs
