#include "obs/progress.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/export.hpp"

namespace peak::obs {

namespace {

std::uint64_t counter_or_zero(const MetricsRegistry::Snapshot& snap,
                              const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// "1.23e+09" is unreadable in a dashboard; render cycles with a metric
/// suffix instead (4.2G, 831M, 12.5k).
std::string human_cycles(double cycles) {
  static constexpr struct {
    double scale;
    char suffix;
  } kUnits[] = {{1e12, 'T'}, {1e9, 'G'}, {1e6, 'M'}, {1e3, 'k'}};
  std::ostringstream os;
  for (const auto& u : kUnits) {
    if (cycles >= u.scale) {
      os << std::fixed << std::setprecision(cycles >= 10 * u.scale ? 0 : 1)
         << cycles / u.scale << u.suffix;
      return os.str();
    }
  }
  os << std::fixed << std::setprecision(0) << cycles;
  return os.str();
}

std::string percent(double part, double whole) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1)
     << (whole > 0.0 ? 100.0 * part / whole : 0.0) << '%';
  return os.str();
}

}  // namespace

ProgressModel build_progress_model(const MetricsRegistry::Snapshot& metrics,
                                   const Ledger::Node& costs) {
  ProgressModel model;
  model.configs_evaluated =
      counter_or_zero(metrics, "search.configs_evaluated");
  model.ratings_started = counter_or_zero(metrics, "rating.started");
  model.ratings_converged = counter_or_zero(metrics, "rating.converged");
  model.invocations = counter_or_zero(metrics, "rating.invocations");
  model.total_cycles = costs.total_cycles;

  // Phase split, summed over the whole tree. Phases are the leaves the
  // charge points use, so a depth-first sum per known phase name covers
  // every path without assuming tree depth.
  static constexpr const char* kPhases[] = {
      "profile", "timed",   "precondition",    "checkpoint", "whole_program",
      "retry",   "faulted", "search_overhead", "cache",
  };
  for (const char* phase : kPhases) {
    const double cycles = phase_total_cycles(costs, phase);
    if (cycles <= 0.0) continue;
    model.phases.push_back({phase, cycles});
  }

  // Tuning sections: machine/benchmark/section rows sorted by simulated
  // cost, most expensive first.
  for (const Ledger::Node& machine : costs.children)
    for (const Ledger::Node& bench : machine.children)
      for (const Ledger::Node& section : bench.children)
        model.sections.push_back(
            {machine.name + "/" + bench.name + "/" + section.name,
             section.total_cycles});
  std::sort(model.sections.begin(), model.sections.end(),
            [](const ProgressModel::Section& a,
               const ProgressModel::Section& b) {
              return a.cycles > b.cycles;
            });

  model.workers.spawned = counter_or_zero(metrics, "proc.workers.spawned");
  model.workers.respawned =
      counter_or_zero(metrics, "proc.workers.respawned");
  model.workers.killed = counter_or_zero(metrics, "proc.kills.term") +
                         counter_or_zero(metrics, "proc.kills.kill");

  model.dist.workers_connected =
      counter_or_zero(metrics, "dist.workers.connected");
  model.dist.workers_lost = counter_or_zero(metrics, "dist.workers.lost");
  model.dist.workers_respawned =
      counter_or_zero(metrics, "dist.workers.respawned");
  model.dist.tasks_dispatched =
      counter_or_zero(metrics, "dist.tasks.dispatched");
  model.dist.tasks_requeued =
      counter_or_zero(metrics, "dist.tasks.requeued");
  model.dist.tasks_failed = counter_or_zero(metrics, "dist.tasks.failed");
  model.dist.heartbeat_gaps =
      counter_or_zero(metrics, "dist.heartbeat.gaps");
  return model;
}

std::string render_progress_frame(const ProgressModel& model) {
  std::ostringstream os;

  os << "peak: " << model.configs_evaluated << " configs | "
     << model.ratings_started << " ratings";
  if (model.ratings_started > 0)
    os << " ("
       << percent(static_cast<double>(model.ratings_converged),
                  static_cast<double>(model.ratings_started))
       << " converged)";
  os << " | " << model.invocations << " invocations | "
     << human_cycles(model.total_cycles) << " cycles\n";

  os << "  phases:";
  for (const ProgressModel::Phase& phase : model.phases)
    os << ' ' << phase.name << ' '
       << percent(phase.cycles, model.total_cycles > 0.0
                                    ? model.total_cycles
                                    : phase.cycles);
  if (model.phases.empty()) os << " (no cycles charged yet)";
  os << '\n';

  if (model.workers.spawned > 0)
    os << "  workers: " << model.workers.spawned << " spawned, "
       << model.workers.respawned << " respawned, " << model.workers.killed
       << " killed\n";

  if (model.dist.workers_connected > 0)
    os << "  fleet: " << model.dist.workers_connected << " connected, "
       << model.dist.workers_lost << " lost, "
       << model.dist.workers_respawned << " respawned | "
       << model.dist.tasks_dispatched << " dispatched, "
       << model.dist.tasks_requeued << " requeued, "
       << model.dist.tasks_failed << " failed\n";

  constexpr std::size_t kMaxRows = 6;
  const std::size_t shown = std::min(model.sections.size(), kMaxRows);
  for (std::size_t i = 0; i < shown; ++i)
    os << "  " << std::left << std::setw(32) << model.sections[i].label
       << ' ' << std::right << std::setw(8)
       << human_cycles(model.sections[i].cycles) << "  ("
       << percent(model.sections[i].cycles, model.total_cycles) << ")\n";
  if (model.sections.size() > shown)
    os << "  … " << model.sections.size() - shown << " more sections\n";

  return os.str();
}

std::string render_progress_frame(const MetricsRegistry::Snapshot& metrics,
                                  const Ledger::Node& costs) {
  return render_progress_frame(build_progress_model(metrics, costs));
}

void write_progress_json(const ProgressModel& model, std::ostream& os) {
  os << "{\"configs_evaluated\":" << model.configs_evaluated
     << ",\"ratings_started\":" << model.ratings_started
     << ",\"ratings_converged\":" << model.ratings_converged
     << ",\"invocations\":" << model.invocations
     << ",\"total_cycles\":" << json_number(model.total_cycles)
     << ",\"phases\":[";
  for (std::size_t i = 0; i < model.phases.size(); ++i)
    os << (i ? "," : "") << "{\"name\":\""
       << json_escape(model.phases[i].name)
       << "\",\"cycles\":" << json_number(model.phases[i].cycles) << "}";
  os << "],\"sections\":[";
  for (std::size_t i = 0; i < model.sections.size(); ++i)
    os << (i ? "," : "") << "{\"label\":\""
       << json_escape(model.sections[i].label)
       << "\",\"cycles\":" << json_number(model.sections[i].cycles) << "}";
  os << "]";
  // Emitted only when workers ever forked, so pre-isolation documents
  // stay byte-identical (and the parse side tolerates absence).
  if (model.workers.spawned > 0)
    os << ",\"workers\":{\"spawned\":" << model.workers.spawned
       << ",\"respawned\":" << model.workers.respawned
       << ",\"killed\":" << model.workers.killed << "}";
  // Same contract for the distributed fleet: absent unless one formed.
  if (model.dist.workers_connected > 0)
    os << ",\"dist\":{\"workers_connected\":"
       << model.dist.workers_connected
       << ",\"workers_lost\":" << model.dist.workers_lost
       << ",\"workers_respawned\":" << model.dist.workers_respawned
       << ",\"tasks_dispatched\":" << model.dist.tasks_dispatched
       << ",\"tasks_requeued\":" << model.dist.tasks_requeued
       << ",\"tasks_failed\":" << model.dist.tasks_failed
       << ",\"heartbeat_gaps\":" << model.dist.heartbeat_gaps << "}";
  os << "}";
}

std::string progress_json(const ProgressModel& model) {
  std::ostringstream os;
  write_progress_json(model, os);
  return os.str();
}

bool write_progress_json_atomic(const ProgressModel& model,
                                const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    write_progress_json(model, out);
    out << '\n';
    if (!out.good()) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// --- ProgressView --------------------------------------------------------

struct ProgressView::Impl {
  Options options;
  std::thread ticker;
  std::mutex mutex;
  std::condition_variable cv;
  bool running = false;
  std::size_t last_lines = 0;  ///< lines drawn by the previous frame

  std::ostream& out() { return options.out ? *options.out : std::cerr; }

  void draw() {
    const std::string frame = render_progress_frame(
        MetricsRegistry::global().snapshot(), Ledger::global().snapshot());
    std::ostream& os = out();
    if (options.ansi && last_lines > 0) {
      // Cursor to the start of the previous frame, then erase below.
      os << "\x1b[" << last_lines << "F\x1b[0J";
    }
    os << frame << std::flush;
    last_lines = static_cast<std::size_t>(
        std::count(frame.begin(), frame.end(), '\n'));
  }

  void loop() {
    std::unique_lock lock(mutex);
    while (running) {
      cv.wait_for(lock, options.interval, [this] { return !running; });
      if (!running) break;
      lock.unlock();
      draw();
      lock.lock();
    }
  }
};

ProgressView::ProgressView() : ProgressView(Options{}) {}

ProgressView::ProgressView(Options options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
}

ProgressView::~ProgressView() { stop(); }

void ProgressView::start() {
  std::unique_lock lock(impl_->mutex);
  if (impl_->running) return;
  impl_->running = true;
  impl_->ticker = std::thread([this] { impl_->loop(); });
}

void ProgressView::stop() {
  {
    std::unique_lock lock(impl_->mutex);
    if (!impl_->running && !impl_->ticker.joinable()) return;
    impl_->running = false;
  }
  impl_->cv.notify_all();
  if (impl_->ticker.joinable()) impl_->ticker.join();
  impl_->draw();  // final frame with end-of-run numbers
}

// --- ProgressJsonWriter --------------------------------------------------

struct ProgressJsonWriter::Impl {
  Options options;
  std::thread ticker;
  std::mutex mutex;
  std::condition_variable cv;
  bool running = false;
  bool ever_started = false;

  void write_once() {
    write_progress_json_atomic(
        build_progress_model(MetricsRegistry::global().snapshot(),
                             Ledger::global().snapshot()),
        options.path);
  }

  void loop() {
    std::unique_lock lock(mutex);
    while (running) {
      cv.wait_for(lock, options.interval, [this] { return !running; });
      if (!running) break;
      lock.unlock();
      write_once();
      lock.lock();
    }
  }
};

ProgressJsonWriter::ProgressJsonWriter(Options options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
}

ProgressJsonWriter::~ProgressJsonWriter() { stop(); }

void ProgressJsonWriter::start() {
  std::unique_lock lock(impl_->mutex);
  if (impl_->running || impl_->options.path.empty()) return;
  impl_->running = true;
  impl_->ever_started = true;
  impl_->ticker = std::thread([this] { impl_->loop(); });
}

void ProgressJsonWriter::stop() {
  {
    std::unique_lock lock(impl_->mutex);
    if (!impl_->running && !impl_->ticker.joinable()) return;
    impl_->running = false;
  }
  impl_->cv.notify_all();
  if (impl_->ticker.joinable()) impl_->ticker.join();
  impl_->write_once();  // final end-of-run document
}

}  // namespace peak::obs
