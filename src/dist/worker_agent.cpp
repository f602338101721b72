#include "dist/worker_agent.hpp"

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "core/session.hpp"
#include "dist/protocol.hpp"
#include "proc/protocol.hpp"
#include "support/check.hpp"
#include "support/shutdown.hpp"
#include "support/tcp.hpp"

namespace peak::dist {

namespace {

/// Frame writes from the agent's main loop and its heartbeat thread
/// interleave on one socket; the mutex keeps frames atomic (the same
/// reason proc's ChildWriter exists).
class SharedWriter {
public:
  explicit SharedWriter(int fd) : fd_(fd) {}

  bool write(const std::string& payload) {
    std::lock_guard<std::mutex> lock(mutex_);
    return proc::write_frame(fd_, payload);
  }

private:
  int fd_;
  std::mutex mutex_;
};

/// Heartbeat thread: one hb frame per interval, from hello until the
/// session ends. Started before the (potentially long) scenario rebuild
/// so the coordinator never mistakes profiling for death.
class Heartbeat {
public:
  Heartbeat(SharedWriter& writer, int interval_ms)
      : writer_(writer), interval_ms_(interval_ms), thread_([this] {
          std::uint64_t seq = 0;
          std::unique_lock<std::mutex> lock(mutex_);
          while (!stop_) {
            cv_.wait_for(lock,
                         std::chrono::milliseconds(interval_ms_),
                         [this] { return stop_; });
            if (stop_) break;
            if (!writer_.write(heartbeat_frame(seq++))) break;
          }
        }) {}

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

private:
  SharedWriter& writer_;
  int interval_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int WorkerAgent::serve(int fd) {
  proc::ignore_sigpipe_once();
  SharedWriter writer(fd);
  int status = 0;
  {
    Heartbeat heartbeat(writer, options_.heartbeat_interval_ms);
    if (!writer.write(hello_frame(options_.name))) {
      ::close(fd);
      return 1;
    }
    proc::FrameReader reader;
    std::unique_ptr<core::Session> session;
    std::uint64_t tasks_done = 0;
    bool abrupt = false;
    bool done = false;
    while (!done) {
      char buf[65536];
      const ssize_t got = ::read(fd, buf, sizeof buf);
      if (got <= 0) break;  // coordinator gone: a clean end for an agent
      reader.feed(buf, static_cast<std::size_t>(got));
      std::optional<std::string> payload;
      while (!done && (payload = reader.next())) {
        core::jsonl::JsonValue record;
        std::string op;
        try {
          record = parse_frame(*payload);
          op = frame_op(record);
        } catch (const support::CheckError& e) {
          std::fprintf(stderr, "peak worker: bad frame: %s\n", e.what());
          status = 1;
          done = true;
          break;
        }
        if (op == "session") {
          try {
            const std::uint64_t version = record.at("version").as_u64();
            PEAK_CHECK(version == kDistProtocolVersion,
                       "coordinator protocol version " +
                           std::to_string(version) + " != " +
                           std::to_string(kDistProtocolVersion));
            session = std::make_unique<core::Session>(
                parse_session_spec(record.at("spec")));
            // Ready means profiled, under the handshake's deadline.
            (void)session->profile();
          } catch (const support::CheckError& e) {
            std::fprintf(stderr, "peak worker: cannot serve session: %s\n",
                         e.what());
            status = 1;
            done = true;
            break;
          }
          if (!writer.write(ready_frame())) {
            status = 1;
            done = true;
          }
        } else if (op == "task") {
          if (session == nullptr) {
            std::fprintf(stderr, "peak worker: task before session\n");
            status = 1;
            done = true;
            break;
          }
          std::uint64_t id = 0;
          std::string result;
          std::string error;
          try {
            id = record.at("id").as_u64();
            const TaskFrame task = parse_task_frame(record);
            result = session->rate(task.task);
          } catch (const std::exception& e) {
            error = e.what();
          }
          const bool sent =
              error.empty() ? writer.write(result_frame(id, result))
                            : writer.write(error_frame(id, error));
          if (!sent) {
            status = 1;
            done = true;
            break;
          }
          ++tasks_done;
          if (options_.max_tasks != 0 &&
              tasks_done >= options_.max_tasks) {
            // Test hook: die like a crashed worker — drop the socket
            // mid-session with no goodbye.
            abrupt = true;
            done = true;
          }
        } else if (op == "refuse") {
          std::fprintf(stderr, "peak worker: refused: %s\n",
                       record.at("reason").as_string().c_str());
          status = 1;
          done = true;
        } else if (op == "bye") {
          done = true;
        } else {
          std::fprintf(stderr, "peak worker: unexpected frame '%s'\n",
                       op.c_str());
          status = 1;
          done = true;
        }
      }
      if (reader.corrupted()) {
        std::fprintf(stderr, "peak worker: corrupt stream\n");
        status = 1;
        break;
      }
    }
    (void)abrupt;  // an abrupt end is still exit 0: the hook did its job
  }
  ::close(fd);
  return status;
}

int WorkerAgent::run() {
  proc::ignore_sigpipe_once();
  if (!options_.listen) {
    std::string error;
    const int fd =
        support::tcp_connect(options_.connect_host, options_.connect_port,
                             options_.connect_timeout_ms, &error);
    if (fd < 0) {
      std::fprintf(stderr, "peak worker: %s\n", error.c_str());
      return 1;
    }
    return serve(fd);
  }
  support::TcpListener listener;
  std::string error;
  if (!listener.listen(options_.listen_port, options_.loopback_only,
                       &error)) {
    std::fprintf(stderr, "peak worker: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "peak worker: listening on port %u\n",
               listener.port());
  while (!support::shutdown_requested()) {
    pollfd pfd{listener.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 200) <= 0) continue;
    const int fd = listener.accept_ready();
    if (fd < 0) continue;
    const int status = serve(fd);
    if (status != 0)
      std::fprintf(stderr, "peak worker: session ended with status %d\n",
                   status);
  }
  return 0;
}

}  // namespace peak::dist
