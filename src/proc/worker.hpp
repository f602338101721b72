#pragma once

/// \file worker.hpp
/// One forked worker subprocess (`peak::proc`). A worker lives until its
/// supervisor retires it: it serves "run task N, attempt A, input I"
/// frames over its pipe pair, executes the TaskFn, and replies with one
/// result frame per task. Everything a task reads besides what the
/// worker inherited at fork time travels in its input string, so a
/// worker forked in one round serves the tasks of later rounds too. A
/// worker starts no thread (a child of a multi-threaded parent may not);
/// the supervisor learns of its death from pipe EOF and `waitpid`, and
/// of a stalled task from its per-dispatch deadline.
///
/// The child applies setrlimit caps before serving: RLIMIT_CPU turns a
/// runaway spin into SIGXCPU (classified as a timeout), RLIMIT_AS turns
/// runaway allocation into std::bad_alloc, which the serve loop converts
/// to a dedicated exit code (classified as OOM). RLIMIT_CPU bounds the
/// CPU time of the worker's whole life, every task it serves included.
/// RLIMIT_AS is used rather than RLIMIT_RSS because the latter is a
/// no-op on Linux. The child never touches the journal, the rating
/// cache, or any other shared file, and leaves via _exit() so no
/// parent-registered atexit handler or static destructor runs twice.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

namespace peak::proc {

/// Resource caps applied in the child before it serves tasks. Zero
/// means "leave unlimited".
struct ResourceLimits {
  unsigned cpu_seconds = 0;            ///< RLIMIT_CPU (SIGXCPU at cap)
  std::size_t address_space_bytes = 0; ///< RLIMIT_AS (bad_alloc at cap)
  bool disable_core = true;            ///< RLIMIT_CORE = 0 (crashes are
                                       ///< routine here; no core spam)
};

/// The work a child executes: returns the serialized result payload for
/// (task index, process attempt, the task's input). Must not throw —
/// escapes are converted to the error exit codes below and the whole
/// attempt is charged as a failure.
using TaskFn = std::function<std::string(
    std::size_t task, std::size_t attempt, const std::string& input)>;

/// Child exit codes with classification meaning (avoid 0..2 and the
/// 128+N signal range).
constexpr int kExitOom = 86;        ///< std::bad_alloc escaped the task
constexpr int kExitTaskError = 87;  ///< any other exception escaped
constexpr int kExitProtocol = 88;   ///< command pipe closed / corrupt

/// Parent-side handle to one forked worker.
class WorkerProcess {
public:
  /// Fork a worker. The child closes every fd in `close_in_child`
  /// (the other workers' pipe ends), applies the limits, and serves
  /// frames; it never returns. Returns nullptr if fork() failed.
  static std::unique_ptr<WorkerProcess> spawn(
      const TaskFn& fn, const ResourceLimits& limits,
      const std::vector<int>& close_in_child);

  ~WorkerProcess();  ///< closes the parent-side fds (does not reap)

  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  /// Parent reads worker frames (results) here.
  [[nodiscard]] int read_fd() const { return from_child_; }
  /// Parent writes commands here.
  [[nodiscard]] int write_fd() const { return to_child_; }

  /// Dispatch one task with its input; false when the pipe is broken
  /// (worker gone).
  bool send_run(std::size_t task, std::size_t attempt,
                const std::string& input);
  /// Ask the child to exit cleanly.
  bool send_exit();

private:
  WorkerProcess() = default;

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

}  // namespace peak::proc
