#pragma once

/// \file metrics.hpp
/// Named counters, gauges, and fixed-bucket histograms (`peak::obs`).
/// Instruments are registered lazily by name in a process-wide registry
/// and never deallocated, so call sites can cache a reference once
/// (`static obs::Counter& c = obs::counter("...")`) and afterwards pay
/// only a relaxed atomic add per update — cheap enough for per-invocation
/// hot paths. `reset()` zeroes values but keeps the instruments alive, so
/// cached references stay valid across runs.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace peak::obs {

/// Canonical registry form of a metric name: every character outside
/// `[a-zA-Z0-9_.]` becomes '_' (and an empty name becomes "_"). Applied
/// at registration, so a hostile or typo'd name (spaces, quotes,
/// newlines) can never corrupt a JSON export or a Prometheus scrape —
/// look-ups with the unsanitized spelling still find the instrument
/// because they pass through the same mapping.
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Monotonic counter (ratings started, configs evaluated, restores…).
class Counter {
public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// Add `n` to a component's own stats field and to the registry counter
/// that mirrors it.
inline void tally(std::uint64_t& stat, Counter& counter,
                  std::uint64_t n = 1) {
  stat += n;
  counter.inc(n);
}

/// Double-valued gauge with set and accumulate semantics (simulated
/// cycles per phase, last regression residual…).
class Gauge {
public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + v,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of one histogram, internally consistent:
/// sum(counts) == count even when taken during concurrent observe()s.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Percentile estimate by linear interpolation within the bucket that
  /// crosses rank p/100·count (Prometheus histogram_quantile style).
  /// The first bucket interpolates from min(0, bounds[0]); ranks landing
  /// in the overflow bucket clamp to bounds.back(). p in [0, 100];
  /// returns 0 when the histogram is empty.
  [[nodiscard]] double percentile(double p) const;
};

/// Fixed-bucket histogram. Bucket i counts observations v <= bounds[i];
/// one implicit overflow bucket counts the rest. Bounds are set on first
/// registration and immutable afterwards.
class Histogram {
public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const {
    return bounds_;
  }
  /// Per-bucket counts; size() == bounds().size() + 1 (overflow last).
  /// Unsynchronized relaxed reads — may tear against concurrent
  /// observe()s (likewise count() and sum()); use snapshot() when the
  /// three must be mutually consistent.
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Consistent view: excludes observe()s in flight, so bucket counts,
  /// count, and sum always agree with each other.
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

private:
  std::vector<double> bounds_;  ///< ascending upper bounds
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// observe() holds this shared (writers stay concurrent — the updates
  /// themselves are atomic); snapshot() and reset() hold it exclusive so
  /// no observation is mid-flight while they read or zero the parts.
  mutable std::shared_mutex snapshot_lock_;
};

class MetricsRegistry {
public:
  static MetricsRegistry& global();

  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime (process lifetime for global()).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is used only when the histogram does not exist yet.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Zero every instrument, keeping registrations (cached references
  /// remain valid).
  void reset();

  /// Point-in-time copy for export. Counters and gauges are read with
  /// relaxed loads; histograms through Histogram::snapshot(), so each is
  /// internally consistent.
  using HistogramSnapshot = obs::HistogramSnapshot;
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  [[nodiscard]] Snapshot snapshot() const;

private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
      histograms_;
};

/// Conveniences over the global registry.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name, std::vector<double> bounds);

}  // namespace peak::obs
