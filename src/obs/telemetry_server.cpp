#include "obs/telemetry_server.hpp"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

// core/jsonl is a leaf record parser (no obs dependencies), pulled in
// only so `peak monitor` and the tests can read telemetry documents back.
#include "core/jsonl.hpp"
#include "obs/event_ring.hpp"
#include "obs/export.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "support/http_server.hpp"

namespace peak::obs {

namespace {

/// How long /events sleeps between ring polls, and how many idle polls
/// pass between SSE keepalive comments (20 × 500ms = 10s).
constexpr std::chrono::milliseconds kEventPoll{500};
constexpr int kKeepaliveEveryIdlePolls = 20;

Histogram& scrape_histogram() {
  static Histogram& h = histogram(
      "telemetry.scrape_us",
      {100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 25000.0,
       50000.0, 100000.0});
  return h;
}

ProgressModel progress_model_from_value(const core::jsonl::JsonValue& v) {
  ProgressModel m;
  m.configs_evaluated = v.at("configs_evaluated").as_u64();
  m.ratings_started = v.at("ratings_started").as_u64();
  m.ratings_converged = v.at("ratings_converged").as_u64();
  m.invocations = v.at("invocations").as_u64();
  m.total_cycles = v.at("total_cycles").as_double();
  for (const auto& p : v.at("phases").as_array())
    m.phases.push_back(
        {p.at("name").as_string(), p.at("cycles").as_double()});
  for (const auto& s : v.at("sections").as_array())
    m.sections.push_back(
        {s.at("label").as_string(), s.at("cycles").as_double()});
  // Absent unless the run forked isolated workers (and in every document
  // written before worker isolation existed).
  if (v.has("workers")) {
    const core::jsonl::JsonValue& w = v.at("workers");
    m.workers.spawned = w.at("spawned").as_u64();
    m.workers.respawned = w.at("respawned").as_u64();
    m.workers.killed = w.at("killed").as_u64();
  }
  // Absent unless the run formed a distributed fleet.
  if (v.has("dist")) {
    const core::jsonl::JsonValue& d = v.at("dist");
    m.dist.workers_connected = d.at("workers_connected").as_u64();
    m.dist.workers_lost = d.at("workers_lost").as_u64();
    m.dist.workers_respawned = d.at("workers_respawned").as_u64();
    m.dist.tasks_dispatched = d.at("tasks_dispatched").as_u64();
    m.dist.tasks_requeued = d.at("tasks_requeued").as_u64();
    m.dist.tasks_failed = d.at("tasks_failed").as_u64();
    m.dist.heartbeat_gaps = d.at("heartbeat_gaps").as_u64();
  }
  return m;
}

}  // namespace

std::string telemetry_snapshot_json(
    const MetricsRegistry::Snapshot& metrics, const Ledger::Node& costs,
    const std::string& run_phase, std::uint64_t uptime_us,
    std::uint64_t events_head_seq) {
  std::ostringstream os;
  os << "{\"run_phase\":\"" << json_escape(run_phase)
     << "\",\"uptime_us\":" << uptime_us
     << ",\"events_head_seq\":" << events_head_seq << ",\"progress\":"
     << progress_json(build_progress_model(metrics, costs))
     << ",\"metrics\":";
  write_metrics_json(metrics, os);
  os << ",\"cost_attribution\":";
  write_ledger_json(costs, os);
  os << "}";
  return os.str();
}

std::string telemetry_healthz_json(const std::string& run_phase,
                                   std::uint64_t uptime_us) {
  std::ostringstream os;
  os << "{\"status\":\"ok\",\"run_phase\":\"" << json_escape(run_phase)
     << "\",\"uptime_us\":" << uptime_us << "}";
  return os.str();
}

RemoteSnapshot parse_snapshot_json(const std::string& json) {
  core::jsonl::JsonParser parser(json);
  const core::jsonl::JsonValue v = parser.parse();
  RemoteSnapshot out;
  out.run_phase = v.at("run_phase").as_string();
  out.uptime_us = v.at("uptime_us").as_u64();
  out.events_head_seq = v.at("events_head_seq").as_u64();
  out.progress = progress_model_from_value(v.at("progress"));
  return out;
}

ProgressModel progress_model_from_json(const std::string& json) {
  core::jsonl::JsonParser parser(json);
  return progress_model_from_value(parser.parse());
}

// --- TelemetryServer -----------------------------------------------------

struct TelemetryServer::Impl {
  Options options;
  std::unique_ptr<support::HttpServer> server;
  std::uint64_t start_us = 0;
  bool port_file_written = false;

  mutable std::mutex phase_mutex;
  std::string phase = "starting";

  std::uint64_t uptime_us() const {
    return Tracer::global().now_us() - start_us;
  }

  std::string current_phase() const {
    std::lock_guard lock(phase_mutex);
    return phase;
  }

  /// Run a handler with request/error accounting and scrape-latency
  /// observation around it.
  support::HttpResponse timed(
      const std::function<support::HttpResponse()>& fn) {
    const std::uint64_t t0 = Tracer::global().now_us();
    support::HttpResponse response = fn();
    counter("telemetry.requests").inc();
    if (response.status >= 400) counter("telemetry.errors").inc();
    scrape_histogram().observe(
        static_cast<double>(Tracer::global().now_us() - t0));
    return response;
  }

  void serve_events(const support::HttpRequest& req,
                    support::HttpServer::StreamWriter& writer) {
    counter("telemetry.requests").inc();
    counter("telemetry.sse_streams").inc();
    EventRing& ring = EventRing::global();
    std::uint64_t from = 0;
    const std::string from_param = req.query_param("from");
    if (from_param.empty()) {
      from = ring.head_seq() + 1;  // only events from now on
    } else {
      try {
        from = std::stoull(from_param);
      } catch (...) {
        from = 1;  // malformed → replay everything retained
      }
      if (from == 0) from = 1;
    }
    if (!writer.write(": peak telemetry event stream\n\n")) return;
    int idle_polls = 0;
    while (writer.alive()) {
      const EventRing::Fetch fetch = ring.fetch(from, 64);
      if (fetch.dropped > 0) {
        counter("telemetry.sse_dropped").inc(fetch.dropped);
        if (!writer.write("event: gap\ndata: {\"dropped\":" +
                          std::to_string(fetch.dropped) + "}\n\n"))
          return;
      }
      for (const EventRing::Entry& entry : fetch.entries) {
        std::string frame = "id: " + std::to_string(entry.seq) +
                            "\nevent: " + entry.kind +
                            "\ndata: " + entry.data + "\n\n";
        if (!writer.write(frame)) return;
      }
      from = fetch.next_seq;
      if (!fetch.entries.empty()) {
        idle_polls = 0;
        continue;
      }
      if (!ring.wait(from, kEventPoll) &&
          ++idle_polls >= kKeepaliveEveryIdlePolls) {
        idle_polls = 0;
        if (!writer.write(": keepalive\n\n")) return;
      }
    }
  }

  void register_handlers() {
    using support::HttpRequest;
    using support::HttpResponse;

    server->handle("/metrics", [this](const HttpRequest&) {
      return timed([] {
        HttpResponse r;
        r.body = prometheus_text(MetricsRegistry::global().snapshot(),
                                 Ledger::global().snapshot());
        r.content_type = "text/plain; version=0.0.4; charset=utf-8";
        return r;
      });
    });

    server->handle("/snapshot", [this](const HttpRequest&) {
      return timed([this] {
        return HttpResponse::json(telemetry_snapshot_json(
            MetricsRegistry::global().snapshot(),
            Ledger::global().snapshot(), current_phase(), uptime_us(),
            EventRing::global().head_seq()));
      });
    });

    server->handle("/healthz", [this](const HttpRequest&) {
      return timed([this] {
        return HttpResponse::json(
            telemetry_healthz_json(current_phase(), uptime_us()));
      });
    });

    server->handle("/quarantine", [this](const HttpRequest&) {
      return timed([this] {
        if (!options.quarantine_json)
          return HttpResponse::text(404, "quarantine not wired\n");
        return HttpResponse::json(options.quarantine_json());
      });
    });

    server->handle("/cache/stats", [this](const HttpRequest&) {
      return timed([this] {
        if (!options.cache_stats_json)
          return HttpResponse::text(404, "cache stats not wired\n");
        return HttpResponse::json(options.cache_stats_json());
      });
    });

    server->handle("/workers", [this](const HttpRequest&) {
      return timed([this] {
        if (!options.workers_json)
          return HttpResponse::text(404, "worker table not wired\n");
        return HttpResponse::json(options.workers_json());
      });
    });

    server->handle_stream(
        "/events",
        [this](const HttpRequest& req,
               support::HttpServer::StreamWriter& writer) {
          serve_events(req, writer);
        });
  }
};

TelemetryServer::TelemetryServer(Options options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start(std::string* error) {
  if (impl_->server && impl_->server->running()) return true;
  support::HttpServer::Options http;
  http.port = impl_->options.port;
  http.workers = impl_->options.workers;
  impl_->server = std::make_unique<support::HttpServer>(http);
  impl_->register_handlers();
  if (!impl_->server->start(error)) {
    impl_->server.reset();
    return false;
  }
  impl_->start_us = Tracer::global().now_us();
  if (!impl_->options.port_file.empty()) {
    std::ofstream out(impl_->options.port_file, std::ios::trunc);
    out << impl_->server->port() << '\n';
    if (!out.good()) {
      if (error)
        *error = "cannot write port file " + impl_->options.port_file;
      impl_->server->stop();
      impl_->server.reset();
      return false;
    }
    impl_->port_file_written = true;
  }
  return true;
}

std::uint16_t TelemetryServer::port() const {
  return impl_->server ? impl_->server->port() : 0;
}

bool TelemetryServer::running() const {
  return impl_->server && impl_->server->running();
}

void TelemetryServer::stop() {
  if (!impl_->server) return;
  EventRing::global().wake_all();
  impl_->server->stop();
  impl_->server.reset();
  if (impl_->port_file_written) {
    std::remove(impl_->options.port_file.c_str());
    impl_->port_file_written = false;
  }
}

void TelemetryServer::set_run_phase(std::string phase) {
  std::lock_guard lock(impl_->phase_mutex);
  impl_->phase = std::move(phase);
}

std::string TelemetryServer::run_phase() const {
  return impl_->current_phase();
}

}  // namespace peak::obs
