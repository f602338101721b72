#pragma once

/// \file traced.hpp
/// The traced run: a tuning session recomposed from the public calls
/// Peak::tune_with_consultant makes, with a span around each layer's
/// call, and per-call probes that time one layer function each on the
/// session's own inputs. Spans are kept in memory and written out when
/// the run ends.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/peak.hpp"
#include "session.hpp"

namespace tunebench {

/// One span: microseconds since the log's origin, the index of the span
/// that opened it (-1 for a session span) and the session it belongs to.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::size_t session = 0;
};

/// In-memory span log of one thread (the driver thread).
class SpanLog {
public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name, std::size_t session);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line.
  bool write_jsonl(const std::string& path) const;

private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// Span times of a traced run, summed over its sessions.
struct SpanSummary {
  /// Total duration by span name, ms.
  std::map<std::string, double> total_ms;
  /// "search" spans minus the evaluator calls inside them, ms.
  double search_self_ms = 0.0;
  /// "session" spans, and the part of them their direct children cover.
  double session_ms = 0.0;
  double covered_ms = 0.0;
};
SpanSummary summarize(const std::vector<Span>& spans);

/// RAII span.
class SpanScope {
public:
  SpanScope(SpanLog& log, std::string name, std::size_t session)
      : log_(log), index_(log.open(std::move(name), session)) {}
  ~SpanScope() { log_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

private:
  SpanLog& log_;
  int index_;
};

/// What the benchmark's search wrapper saw at the search/evaluator
/// boundary in one session.
struct SearchTally {
  std::uint64_t rounds = 0;   ///< rate_batch calls (probe rounds)
  std::uint64_t members = 0;  ///< candidates submitted in those rounds
};

/// One traced session with `seed`, id `session` in `log`. The search is
/// Iterative Elimination behind a wrapper that times every evaluator
/// call, passed in as DriverOptions::search_algorithm. Its MethodRun must
/// equal run_session()'s for the same seed.
core::MethodRun run_traced_session(const Scenario& s, std::uint64_t seed,
                                   SpanLog& log, std::size_t session,
                                   SearchTally& tally);

/// Per-call times of one layer function each, on the inputs of the
/// session with `seed`.
struct Probes {
  double vm_run_us = 0.0;        ///< BytecodeVm::run, per train invocation
  double invoke_miss_us = 0.0;   ///< SimExecutionBackend::invoke, cold
  double invoke_hit_us = 0.0;    ///< SimExecutionBackend::invoke, warm
  double window_add_us = 0.0;    ///< WindowedRater::add + converged()
  double mbr_rating_us = 0.0;    ///< ModelBasedRater::add + rating()
  double proc_round_ms = 0.0;    ///< 2-worker proc::Supervisor::run
};
Probes run_probes(const Scenario& s, std::uint64_t seed);

}  // namespace tunebench
