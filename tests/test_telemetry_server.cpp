#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/profile.hpp"
#include "core/tuning_driver.hpp"
#include "obs/event_ring.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry_server.hpp"
#include "support/http_server.hpp"
#include "json_checker.hpp"
#include "workloads/workload.hpp"

namespace peak::obs {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

// --- Metric-name sanitization (satellite 1) ------------------------------

TEST(MetricNameSanitization, MapsHostileCharactersToUnderscore) {
  EXPECT_EQ(sanitize_metric_name("search.configs_evaluated"),
            "search.configs_evaluated");
  EXPECT_EQ(sanitize_metric_name("evil name{with}\"quotes\"\n"),
            "evil_name_with__quotes__");
  EXPECT_EQ(sanitize_metric_name(""), "_");
  EXPECT_EQ(sanitize_metric_name("a/b:c-d"), "a_b_c_d");
}

TEST(MetricNameSanitization, HostileRegistrationsExportCleanly) {
  const std::string hostile = "tele test.evil{label=\"x\"}\nname";
  Counter& c = counter(hostile);
  c.inc(3);
  // Looking the instrument up by the unsanitized spelling finds the same
  // counter (both pass through sanitize_metric_name).
  EXPECT_EQ(&counter(hostile), &c);
  EXPECT_EQ(&counter(sanitize_metric_name(hostile)), &c);

  const MetricsRegistry::Snapshot snap =
      MetricsRegistry::global().snapshot();
  const std::string sanitized = sanitize_metric_name(hostile);
  ASSERT_TRUE(snap.counters.count(sanitized));
  EXPECT_EQ(snap.counters.count(hostile), 0u);

  // The Prometheus name derived from it is a valid metric name.
  const std::string prom = prometheus_name(sanitized, "_total");
  for (char ch : prom)
    EXPECT_TRUE((ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                (ch >= '0' && ch <= '9') || ch == '_')
        << "bad char in " << prom;
}

// --- Prometheus exposition (tentpole surface) ----------------------------

TEST(Prometheus, NameMappingAndLabelEscape) {
  EXPECT_EQ(prometheus_name("search.configs_evaluated", "_total"),
            "peak_search_configs_evaluated_total");
  EXPECT_EQ(prometheus_name("telemetry.scrape_us"),
            "peak_telemetry_scrape_us");
  EXPECT_EQ(prometheus_label_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(Prometheus, ExpositionCoversAllInstrumentKinds) {
  MetricsRegistry::Snapshot metrics;
  metrics.counters["search.configs_evaluated"] = 42;
  metrics.gauges["sim.cycles_timed"] = 1.5e6;
  HistogramSnapshot h;
  h.bounds = {10.0, 100.0};
  h.counts = {3, 2, 1};  // last = overflow
  h.count = 6;
  h.sum = 450.0;
  metrics.histograms["telemetry.scrape_us"] = h;

  Ledger ledger;
  ledger.charge({"sparc2", "SWIM", "calc1", "CBR", "timed"}, 1000.0, 10.0);

  const std::string text = prometheus_text(metrics, ledger.snapshot());

  // Counter: TYPE line + _total suffix.
  EXPECT_NE(text.find("# TYPE peak_search_configs_evaluated_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("peak_search_configs_evaluated_total 42"),
            std::string::npos);
  // Gauge.
  EXPECT_NE(text.find("# TYPE peak_sim_cycles_timed gauge"),
            std::string::npos);
  // Histogram: cumulative buckets closed by +Inf, plus _sum and _count.
  EXPECT_NE(text.find("# TYPE peak_telemetry_scrape_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("peak_telemetry_scrape_us_bucket{le=\"10\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("peak_telemetry_scrape_us_bucket{le=\"100\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("peak_telemetry_scrape_us_bucket{le=\"+Inf\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("peak_telemetry_scrape_us_sum 450"),
            std::string::npos);
  EXPECT_NE(text.find("peak_telemetry_scrape_us_count 6"),
            std::string::npos);
  // Ledger flattening: labelled cost series for the leaf path.
  EXPECT_NE(
      text.find(
          "peak_cost_cycles{path=\"all;sparc2;SWIM;calc1;CBR;timed\"}"),
      std::string::npos);
  EXPECT_NE(text.find("peak_cost_self_cycles{path="), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

// --- EventRing (SSE buffer) ----------------------------------------------

TEST(EventRing, SequencesDenselyAndFetchesByRange) {
  EventRing ring(8);
  EXPECT_EQ(ring.head_seq(), 0u);
  for (int i = 1; i <= 5; ++i)
    EXPECT_EQ(ring.publish("note", "{\"n\":" + std::to_string(i) + "}"),
              static_cast<std::uint64_t>(i));
  EXPECT_EQ(ring.head_seq(), 5u);

  const EventRing::Fetch all = ring.fetch(1, 64);
  EXPECT_EQ(all.dropped, 0u);
  ASSERT_EQ(all.entries.size(), 5u);
  EXPECT_EQ(all.entries.front().seq, 1u);
  EXPECT_EQ(all.entries.back().seq, 5u);
  EXPECT_EQ(all.next_seq, 6u);

  const EventRing::Fetch tail = ring.fetch(4, 64);
  ASSERT_EQ(tail.entries.size(), 2u);
  EXPECT_EQ(tail.entries.front().seq, 4u);

  const EventRing::Fetch capped = ring.fetch(1, 2);
  ASSERT_EQ(capped.entries.size(), 2u);
  EXPECT_EQ(capped.next_seq, 3u);

  const EventRing::Fetch beyond = ring.fetch(99, 64);
  EXPECT_TRUE(beyond.entries.empty());
  EXPECT_EQ(beyond.dropped, 0u);
  EXPECT_EQ(beyond.next_seq, 99u);
}

TEST(EventRing, OverflowEvictsOldestAndReportsTheGap) {
  EventRing ring(4);
  for (int i = 1; i <= 10; ++i) ring.publish("note", "{}");
  // Retained: seqs 7..10. A reader starting at 1 lost exactly 6.
  const EventRing::Fetch fetch = ring.fetch(1, 64);
  EXPECT_EQ(fetch.dropped, 6u);
  ASSERT_EQ(fetch.entries.size(), 4u);
  EXPECT_EQ(fetch.entries.front().seq, 7u);
  EXPECT_EQ(fetch.next_seq, 11u);
  // A reader already past the eviction horizon sees no gap.
  EXPECT_EQ(ring.fetch(8, 64).dropped, 0u);
}

TEST(EventRing, WaitWakesOnPublishAndOnWakeAll) {
  EventRing ring(8);
  // Timeout path: nothing published.
  EXPECT_FALSE(ring.wait(1, std::chrono::milliseconds(10)));

  std::thread publisher([&ring] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ring.publish("note", "{}");
  });
  EXPECT_TRUE(ring.wait(1, std::chrono::seconds(5)));
  publisher.join();

  std::thread waker([&ring] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ring.wake_all();
  });
  // wake_all unblocks the waiter even though seq 2 never arrives.
  ring.wait(2, std::chrono::seconds(5));
  waker.join();

  ring.clear();
  EXPECT_EQ(ring.head_seq(), 0u);
  EXPECT_EQ(ring.fetch(1, 64).dropped, 0u);
}

// --- ProgressModel JSON round trips --------------------------------------

ProgressModel sample_model() {
  ProgressModel m;
  m.configs_evaluated = 111;
  m.ratings_started = 40;
  m.ratings_converged = 38;
  m.invocations = 5200;
  m.total_cycles = 1.25e9;
  m.phases = {{"profile", 2.0e8}, {"timed", 9.5e8}};
  m.sections = {{"sparc2/SWIM/calc1", 7.0e8}, {"sparc2/SWIM/calc2", 3.0e8}};
  m.workers.spawned = 4;
  m.workers.respawned = 1;
  m.workers.killed = 1;
  return m;
}

TEST(ProgressJson, ModelRoundTripsThroughJson) {
  const ProgressModel model = sample_model();
  const std::string json = progress_json(model);
  EXPECT_TRUE(testutil::JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"workers\""), std::string::npos);
  const ProgressModel back = progress_model_from_json(json);
  EXPECT_EQ(back, model);
  // The remote monitor renders the identical frame from the rebuilt model.
  EXPECT_EQ(render_progress_frame(back), render_progress_frame(model));
}

TEST(ProgressJson, WorkersMemberOmittedWhenNothingForked) {
  // Pre-isolation consumers parse the document byte-compatibly: a run
  // that never forked a worker emits no "workers" member at all, and the
  // tolerant parser leaves the zero-initialized struct alone.
  ProgressModel model = sample_model();
  model.workers = {};
  const std::string json = progress_json(model);
  EXPECT_EQ(json.find("\"workers\""), std::string::npos) << json;
  EXPECT_EQ(progress_model_from_json(json), model);
}

TEST(ProgressJson, AtomicWriterLeavesOneCompleteDocument) {
  const ProgressModel model = sample_model();
  const std::string path = temp_path("peak_progress_roundtrip.json");
  ASSERT_TRUE(write_progress_json_atomic(model, path));
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_TRUE(testutil::JsonChecker(text).valid()) << text;
  EXPECT_EQ(progress_model_from_json(text), model);
  std::remove(path.c_str());
}

TEST(ProgressJson, ModelDerivesFromMetricsAndLedger) {
  MetricsRegistry::Snapshot metrics;
  metrics.counters["search.configs_evaluated"] = 7;
  metrics.counters["rating.started"] = 3;
  metrics.counters["rating.converged"] = 2;
  metrics.counters["rating.invocations"] = 640;

  Ledger ledger;
  ledger.charge({"sparc2", "SWIM", "calc1", "CBR", "timed"}, 5000.0);
  ledger.charge({"sparc2", "SWIM", "calc1", "CBR", "profile"}, 1000.0);

  const ProgressModel m =
      build_progress_model(metrics, ledger.snapshot());
  EXPECT_EQ(m.configs_evaluated, 7u);
  EXPECT_EQ(m.ratings_started, 3u);
  EXPECT_EQ(m.ratings_converged, 2u);
  EXPECT_EQ(m.invocations, 640u);
  EXPECT_DOUBLE_EQ(m.total_cycles, 6000.0);
  ASSERT_EQ(m.sections.size(), 1u);
  EXPECT_EQ(m.sections[0].label, "sparc2/SWIM/calc1");
  EXPECT_DOUBLE_EQ(m.sections[0].cycles, 6000.0);
  bool saw_timed = false;
  for (const ProgressModel::Phase& p : m.phases)
    if (p.name == "timed") {
      saw_timed = true;
      EXPECT_DOUBLE_EQ(p.cycles, 5000.0);
    }
  EXPECT_TRUE(saw_timed);
}

// --- /snapshot document round trip ---------------------------------------

TEST(SnapshotJson, RoundTripsPhaseUptimeAndProgress) {
  MetricsRegistry::Snapshot metrics;
  metrics.counters["search.configs_evaluated"] = 9;
  Ledger ledger;
  ledger.charge({"sparc2", "SWIM", "calc1", "CBR", "timed"}, 123.0);
  const Ledger::Node costs = ledger.snapshot();

  const std::string json =
      telemetry_snapshot_json(metrics, costs, "tuning", 123456, 17);
  EXPECT_TRUE(testutil::JsonChecker(json).valid()) << json;

  const RemoteSnapshot snap = parse_snapshot_json(json);
  EXPECT_EQ(snap.run_phase, "tuning");
  EXPECT_EQ(snap.uptime_us, 123456u);
  EXPECT_EQ(snap.events_head_seq, 17u);
  EXPECT_EQ(snap.progress, build_progress_model(metrics, costs));
}

// --- TelemetryServer endpoint integration --------------------------------

class TelemetryServerTest : public ::testing::Test {
protected:
  support::HttpClientResult get(const std::string& path) {
    return support::http_get("127.0.0.1", server_->port(), path);
  }

  void start(TelemetryServer::Options options) {
    server_ = std::make_unique<TelemetryServer>(std::move(options));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  std::unique_ptr<TelemetryServer> server_;
};

TEST_F(TelemetryServerTest, ServesAllEndpointsAndThePortFile) {
  const std::string port_file = temp_path("peak_test.port");
  TelemetryServer::Options options;
  options.port_file = port_file;
  options.quarantine_json = [] {
    return std::string("{\"size\":0,\"entries\":[]}");
  };
  start(std::move(options));
  ASSERT_NE(server_->port(), 0);
  server_->set_run_phase("tuning");

  // Port-file rendezvous: one decimal line with the bound port.
  {
    std::ifstream in(port_file);
    ASSERT_TRUE(in.good());
    std::uint32_t port = 0;
    in >> port;
    EXPECT_EQ(port, server_->port());
  }

  const support::HttpClientResult health = get("/healthz");
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"run_phase\":\"tuning\""),
            std::string::npos);

  const support::HttpClientResult metrics = get("/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.headers.at("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("peak_telemetry_requests_total"),
            std::string::npos);

  const support::HttpClientResult snapshot = get("/snapshot");
  ASSERT_TRUE(snapshot.ok) << snapshot.error;
  EXPECT_EQ(snapshot.status, 200);
  EXPECT_EQ(snapshot.headers.at("content-type"), "application/json");
  EXPECT_TRUE(testutil::JsonChecker(snapshot.body).valid());
  EXPECT_EQ(parse_snapshot_json(snapshot.body).run_phase, "tuning");

  const support::HttpClientResult quarantine = get("/quarantine");
  ASSERT_TRUE(quarantine.ok) << quarantine.error;
  EXPECT_EQ(quarantine.status, 200);
  EXPECT_EQ(quarantine.body, "{\"size\":0,\"entries\":[]}");

  // No cache provider wired: that endpoint (and unknown paths) 404.
  EXPECT_EQ(get("/cache/stats").status, 404);
  EXPECT_EQ(get("/nope").status, 404);

  server_->stop();
  server_->stop();  // idempotent
  EXPECT_FALSE(server_->running());
  EXPECT_FALSE(std::ifstream(port_file).good())
      << "port file must be removed on stop";
}

TEST_F(TelemetryServerTest, EventsStreamTailsTheRingLive) {
  EventRing::global().clear();
  start({});
  publish_run_event("alpha", "{\"n\":1}");

  std::string collected;
  bool published_beta = false;
  std::string error;
  const bool ok = support::http_stream(
      "127.0.0.1", server_->port(), "/events?from=1",
      [&](std::string_view chunk) {
        collected.append(chunk);
        if (!published_beta &&
            collected.find("event: alpha") != std::string::npos) {
          published_beta = true;
          publish_run_event("beta", "{\"n\":2}");
        }
        return collected.find("event: beta") == std::string::npos;
      },
      &error);
  EXPECT_TRUE(ok) << error;
  // Opening comment, then both events framed with id/event/data.
  EXPECT_NE(collected.find(": peak telemetry event stream"),
            std::string::npos);
  EXPECT_NE(collected.find("id: 1\nevent: alpha\ndata: {\"n\":1}\n\n"),
            std::string::npos);
  EXPECT_NE(collected.find("id: 2\nevent: beta\ndata: {\"n\":2}\n\n"),
            std::string::npos);
  server_->stop();
}

TEST_F(TelemetryServerTest, LaggedConsumerGetsAGapMarkerNotSilence) {
  EventRing& ring = EventRing::global();
  ring.clear();
  // Overflow the ring before anyone connects: a consumer asking for
  // seq 1 lost exactly (published - capacity) events.
  const std::size_t published = ring.capacity() + 5;
  for (std::size_t i = 0; i < published; ++i)
    publish_run_event("note", "{}");
  start({});

  std::string collected;
  std::string error;
  const bool ok = support::http_stream(
      "127.0.0.1", server_->port(), "/events?from=1",
      [&](std::string_view chunk) {
        collected.append(chunk);
        return collected.find("event: gap") == std::string::npos;
      },
      &error);
  EXPECT_TRUE(ok) << error;
  EXPECT_NE(collected.find("event: gap\ndata: {\"dropped\":5}\n\n"),
            std::string::npos);
  server_->stop();
  ring.clear();
}

TEST_F(TelemetryServerTest, WorkersEndpointServesTheProviderDocument) {
  TelemetryServer::Options options;
  options.workers_json = [] {
    return std::string("{\"workers\":[{\"slot\":0,\"state\":\"idle\"}]}");
  };
  start(std::move(options));
  const support::HttpClientResult workers = get("/workers");
  ASSERT_TRUE(workers.ok) << workers.error;
  EXPECT_EQ(workers.status, 200);
  EXPECT_EQ(workers.headers.at("content-type"), "application/json");
  EXPECT_NE(workers.body.find("\"slot\":0"), std::string::npos);
  server_->stop();

  // Without a provider the endpoint is absent, like /cache/stats.
  start({});
  EXPECT_EQ(get("/workers").status, 404);
  server_->stop();
}

TEST_F(TelemetryServerTest, ClientsDisconnectingMidStreamDoNotWedgeIt) {
  // Satellite: an /events consumer that drops its connection mid-stream
  // (crashed dashboard, ^C'd curl) must cost the server nothing. Hammer
  // the failure mode: 100 connects that each abort after the first
  // chunk, with events still being published — then the server must
  // still answer like nothing happened.
  EventRing::global().clear();
  start({});
  publish_run_event("alpha", "{\"n\":1}");

  for (int i = 0; i < 100; ++i) {
    std::string error;
    // Returning false from the sink closes the socket immediately while
    // the server-side streamer is still live and mid-write.
    (void)support::http_stream(
        "127.0.0.1", server_->port(), "/events?from=1",
        [](std::string_view) { return false; }, &error);
    if (i % 10 == 0) publish_run_event("tick", "{}");
  }

  const support::HttpClientResult health = get("/healthz");
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(health.status, 200);
  // A fresh consumer still gets a working stream.
  std::string collected;
  std::string error;
  const bool ok = support::http_stream(
      "127.0.0.1", server_->port(), "/events?from=1",
      [&](std::string_view chunk) {
        collected.append(chunk);
        return collected.find("event: alpha") == std::string::npos;
      },
      &error);
  EXPECT_TRUE(ok) << error;
  EXPECT_NE(collected.find("event: alpha"), std::string::npos);
  server_->stop();
  EventRing::global().clear();
}

// --- Determinism under scrape load (tentpole acceptance) ------------------

TEST(TelemetryDeterminism, ScrapeHammerDoesNotPerturbTuning) {
  const sim::MachineModel machine = sim::sparc2();
  const sim::FlagEffectModel effects(search::gcc33_o3_space());
  const auto workload = workloads::make_workload("SWIM");
  const workloads::Trace train =
      workload->trace(workloads::DataSet::kTrain, 42);
  const core::ProfileData profile =
      core::profile_workload(*workload, train, machine);

  // Unobserved baseline.
  core::TuningDriver plain(*workload, profile, train, machine, effects,
                           {});
  const core::TuningOutcome baseline = plain.tune(rating::Method::kCBR);

  // Same tune with the telemetry server up and four clients hammering
  // every endpoint for the whole run.
  TelemetryServer server({});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  const char* paths[] = {"/metrics", "/snapshot", "/healthz",
                         "/metrics"};
  // Keep hammering past `done` until every path was scraped a few times:
  // a simulated tune finishes in tens of milliseconds, so without the
  // floor a fast run could end before the first scrape lands.
  std::vector<std::thread> hammers;
  for (const char* path : paths)
    hammers.emplace_back([&server, &done, &scrapes, path] {
      int mine = 0;
      while (!done.load() || mine < 3) {
        const support::HttpClientResult r =
            support::http_get("127.0.0.1", server.port(), path);
        if (r.ok && r.status == 200) {
          ++scrapes;
          ++mine;
        }
      }
    });

  // Several observed tunes widen the window the scrapers overlap with.
  for (int run = 0; run < 3; ++run) {
    core::TuningDriver observed(*workload, profile, train, machine,
                                effects, {});
    // The whole point: observation is free of observable effect.
    EXPECT_EQ(observed.tune(rating::Method::kCBR), baseline) << run;
  }

  done = true;
  for (std::thread& h : hammers) h.join();
  server.stop();
  EXPECT_GE(scrapes.load(), 12);
}

// --- Exposition dump for the ctest Prometheus lint fixture ---------------

/// Writes TELEMETRY_metrics.txt (cwd) from a real post-tune registry +
/// ledger. The top-level CMakeLists runs exactly this test in the build
/// directory as a fixture, then lints the file with
/// tools/check_prometheus.py.
TEST(TelemetryDump, WritesMetricsExposition) {
  const sim::MachineModel machine = sim::sparc2();
  const sim::FlagEffectModel effects(search::gcc33_o3_space());
  const auto workload = workloads::make_workload("SWIM");
  const workloads::Trace train =
      workload->trace(workloads::DataSet::kTrain, 42);
  const core::ProfileData profile =
      core::profile_workload(*workload, train, machine);
  core::TuningDriver driver(*workload, profile, train, machine, effects,
                            {});
  driver.tune(rating::Method::kCBR);
  // Make sure telemetry's own instruments appear in the dump too.
  counter("telemetry.requests").inc();
  histogram("telemetry.scrape_us", {100.0, 1000.0}).observe(42.0);

  const std::string text =
      prometheus_text(MetricsRegistry::global().snapshot(),
                      Ledger::global().snapshot());
  ASSERT_FALSE(text.empty());
  std::ofstream out("TELEMETRY_metrics.txt", std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good());
}

}  // namespace
}  // namespace peak::obs
