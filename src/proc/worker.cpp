#include "proc/worker.hpp"

#include <errno.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <new>
#include <optional>

#include "core/jsonl.hpp"
#include "proc/protocol.hpp"

namespace peak::proc {

namespace {

void apply_limits(const ResourceLimits& limits) {
  if (limits.cpu_seconds > 0) {
    struct rlimit rl;
    rl.rlim_cur = limits.cpu_seconds;
    rl.rlim_max = limits.cpu_seconds + 1;  // SIGKILL backstop at hard cap
    setrlimit(RLIMIT_CPU, &rl);
  }
  if (limits.address_space_bytes > 0) {
    struct rlimit rl;
    rl.rlim_cur = limits.address_space_bytes;
    rl.rlim_max = limits.address_space_bytes;
    setrlimit(RLIMIT_AS, &rl);
  }
  if (limits.disable_core) {
    struct rlimit rl;
    rl.rlim_cur = 0;
    rl.rlim_max = 0;
    setrlimit(RLIMIT_CORE, &rl);
  }
}

[[noreturn]] void serve(const TaskFn& fn, const ResourceLimits& limits,
                        int in_fd, int out_fd) {
  // The parent's shutdown/telemetry signal handling must not run here:
  // the supervisor owns this process's lifecycle, and SIGTERM must
  // terminate it so watchdog escalation is observable.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGPIPE, SIG_DFL);

  apply_limits(limits);

  FrameReader reader;
  char buf[4096];
  for (;;) {
    std::optional<std::string> payload;
    while (!(payload = reader.next())) {
      if (reader.corrupted()) _exit(kExitProtocol);
      const ssize_t n = read(in_fd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        _exit(kExitProtocol);
      }
      if (n == 0) _exit(kExitProtocol);  // parent died / closed pipe
      reader.feed(buf, static_cast<std::size_t>(n));
    }

    try {
      core::jsonl::JsonParser parser(*payload);
      const core::jsonl::JsonValue cmd = parser.parse();
      const std::string& op = cmd.at("op").as_string();
      if (op == "exit") _exit(0);
      if (op != "run") _exit(kExitProtocol);
      const std::size_t task = cmd.at("task").as_u64();
      const std::size_t attempt = cmd.at("attempt").as_u64();

      std::string result;
      try {
        result = fn(task, attempt, cmd.at("input").as_string());
      } catch (const std::bad_alloc&) {
        _exit(kExitOom);  // RLIMIT_AS (or genuine exhaustion) tripped
      } catch (...) {
        _exit(kExitTaskError);
      }
      std::string frame = "{\"op\":\"result\",\"task\":";
      frame += std::to_string(task);
      frame += ",\"payload\":";
      core::jsonl::append_quoted(frame, result);
      frame += '}';
      if (!write_frame(out_fd, frame)) _exit(kExitProtocol);
    } catch (...) {
      _exit(kExitProtocol);  // malformed command frame
    }
  }
}

}  // namespace

std::unique_ptr<WorkerProcess> WorkerProcess::spawn(
    const TaskFn& fn, const ResourceLimits& limits,
    const std::vector<int>& close_in_child) {
  int to_child[2];    // parent writes commands, child reads
  int from_child[2];  // child writes frames, parent reads
  if (pipe(to_child) != 0) return nullptr;
  if (pipe(from_child) != 0) {
    close(to_child[0]);
    close(to_child[1]);
    return nullptr;
  }

  const pid_t pid = fork();
  if (pid < 0) {
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]})
      close(fd);
    return nullptr;
  }

  if (pid == 0) {
    // Child. Drop the parent-side ends plus every other worker's pipes:
    // an inherited read end of a sibling's result pipe would keep that
    // pipe open after the sibling dies, masking its EOF from the
    // supervisor, and an inherited write end of a sibling's command pipe
    // would keep the sibling from seeing EOF when the parent dies.
    close(to_child[1]);
    close(from_child[0]);
    for (int fd : close_in_child) close(fd);
    serve(fn, limits, to_child[0], from_child[1]);
  }

  // Parent.
  close(to_child[0]);
  close(from_child[1]);
  auto worker = std::unique_ptr<WorkerProcess>(new WorkerProcess);
  worker->pid_ = pid;
  worker->to_child_ = to_child[1];
  worker->from_child_ = from_child[0];
  return worker;
}

WorkerProcess::~WorkerProcess() {
  if (to_child_ >= 0) close(to_child_);
  if (from_child_ >= 0) close(from_child_);
}

bool WorkerProcess::send_run(std::size_t task, std::size_t attempt,
                             const std::string& input) {
  std::string frame = "{\"op\":\"run\",\"task\":";
  frame += std::to_string(task);
  frame += ",\"attempt\":";
  frame += std::to_string(attempt);
  frame += ",\"input\":";
  core::jsonl::append_quoted(frame, input);
  frame += '}';
  return write_frame(to_child_, frame);
}

bool WorkerProcess::send_exit() {
  return write_frame(to_child_, "{\"op\":\"exit\"}");
}

}  // namespace peak::proc
