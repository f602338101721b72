#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <future>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/peak.hpp"
#include "json_checker.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace peak::obs {
namespace {

using testutil::JsonChecker;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// RAII guard: uninstall the global sink even if an assertion fails.
struct SinkGuard {
  explicit SinkGuard(std::shared_ptr<Sink> sink) {
    Tracer::global().set_sink(std::move(sink));
  }
  ~SinkGuard() { Tracer::global().set_sink(nullptr); }
};

TEST(Metrics, HistogramBucketMath) {
  Histogram h({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0}) h.observe(v);
  // Bucket i counts v <= bounds[i]; exact bound values land in their
  // own bucket, not the next one up.
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 2, 2, 1}));
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 4.0 + 5.0);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{0, 0, 0, 0}));
}

TEST(Metrics, HistogramSnapshotNeverTearsUnderConcurrentObserves) {
  // Regression test: snapshot() used to read buckets, count, and sum with
  // independent relaxed loads, so a snapshot taken mid-observe() could
  // see sum(counts) != count. The shared_mutex fix makes every snapshot
  // internally consistent no matter how hard writers hammer.
  Histogram h({1.0, 2.0, 4.0});
  std::atomic<bool> done{false};
  support::ThreadPool pool(4);
  std::vector<std::future<void>> writers;
  for (int t = 0; t < 3; ++t) {
    writers.push_back(pool.submit([&h, &done, t] {
      std::uint64_t i = 0;
      while (!done.load(std::memory_order_relaxed))
        h.observe(static_cast<double>((i++ + t) % 6));
    }));
  }

  for (int i = 0; i < 2000; ++i) {
    const HistogramSnapshot snap = h.snapshot();
    std::uint64_t total = 0;
    for (std::uint64_t c : snap.counts) total += c;
    ASSERT_EQ(total, snap.count)
        << "snapshot tore: bucket counts disagree with count";
  }
  done.store(true);
  for (auto& w : writers) w.get();

  // And the final quiescent snapshot agrees with the plain accessors.
  const HistogramSnapshot final_snap = h.snapshot();
  EXPECT_EQ(final_snap.count, h.count());
  EXPECT_EQ(final_snap.counts, h.counts());
}

TEST(Metrics, PercentilesInterpolateWithinBuckets) {
  // 100 observations spread uniformly over (0, 10]: bounds every 1.0,
  // 10 per bucket. The interpolated percentiles land on p/10.
  Histogram h({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0});
  for (int i = 1; i <= 100; ++i) h.observe(i / 10.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_NEAR(snap.percentile(50.0), 5.0, 1e-9);
  EXPECT_NEAR(snap.percentile(90.0), 9.0, 1e-9);
  EXPECT_NEAR(snap.percentile(99.0), 9.9, 1e-9);
  EXPECT_NEAR(snap.percentile(10.0), 1.0, 1e-9);
  // p=100 is the top of the highest non-empty bucket; p=0 its bottom edge.
  EXPECT_NEAR(snap.percentile(100.0), 10.0, 1e-9);
  EXPECT_NEAR(snap.percentile(0.0), 0.0, 1e-9);
}

TEST(Metrics, PercentileEdgeCases) {
  Histogram empty({1.0, 2.0});
  EXPECT_EQ(empty.snapshot().percentile(50.0), 0.0);

  // Observations beyond the last bound land in the overflow bucket; the
  // estimate clamps to the highest bound rather than extrapolating.
  Histogram overflow({1.0, 2.0});
  for (int i = 0; i < 10; ++i) overflow.observe(100.0);
  EXPECT_EQ(overflow.snapshot().percentile(50.0), 2.0);
  EXPECT_EQ(overflow.snapshot().percentile(99.0), 2.0);

  // A single observation in the first bucket interpolates from 0.
  Histogram single({4.0, 8.0});
  single.observe(3.0);
  EXPECT_NEAR(single.snapshot().percentile(50.0), 2.0, 1e-9);
  EXPECT_NEAR(single.snapshot().percentile(100.0), 4.0, 1e-9);
}

TEST(Metrics, PercentilesAreMonotone) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 57; ++i) h.observe((i * 37 % 100) / 10.0);
  const HistogramSnapshot snap = h.snapshot();
  double prev = snap.percentile(0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double q = snap.percentile(p);
    EXPECT_GE(q, prev) << "percentile(" << p << ") went backwards";
    prev = q;
  }
}

TEST(Metrics, CounterIsAtomicAcrossThreads) {
  Counter& c = counter("test.parallel_increments");
  c.reset();
  support::ThreadPool pool(4);
  pool.parallel_for(0, 10000, [&](std::size_t) { c.inc(); });
  EXPECT_EQ(c.value(), 10000u);
}

TEST(Metrics, RegistryResetKeepsReferencesValid) {
  Counter& c = counter("test.reset_survivor");
  c.inc(5);
  Gauge& g = gauge("test.reset_gauge");
  g.set(2.5);
  MetricsRegistry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  c.inc();  // the cached reference still points at a live instrument
  EXPECT_EQ(counter("test.reset_survivor").value(), 1u);
  EXPECT_EQ(&counter("test.reset_survivor"), &c);
}

TEST(Trace, SpansNestAcrossThreads) {
  auto sink = std::make_shared<VectorSink>();
  {
    SinkGuard guard(sink);
    support::ThreadPool pool(4);
    std::latch ready(4);
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 4; ++i) {
      futs.push_back(pool.submit([&ready] {
        // The latch holds all four workers inside their task at once, so
        // the four outer spans are guaranteed to come from four threads.
        ready.arrive_and_wait();
        ScopedSpan outer("outer", "test");
        ScopedSpan inner("inner", "test", {attr("i", 1)});
      }));
    }
    for (auto& f : futs) f.get();
  }

  const std::vector<TraceEvent>& events = sink->events();
  ASSERT_EQ(events.size(), 8u);

  std::set<std::uint32_t> tids;
  std::size_t inners = 0;
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.phase, EventPhase::kComplete);
    tids.insert(e.tid);
    if (e.name != "inner") continue;
    ++inners;
    EXPECT_EQ(e.depth, 1u);
    ASSERT_EQ(e.args.size(), 1u);
    EXPECT_EQ(e.args[0].key, "i");
    // The matching outer span (same thread) must contain the inner one
    // in time — the containment Chrome's viewer uses for nesting.
    bool contained = false;
    for (const TraceEvent& o : events) {
      if (o.name != "outer" || o.tid != e.tid) continue;
      EXPECT_EQ(o.depth, 0u);
      if (o.ts_us <= e.ts_us && e.ts_us + e.dur_us <= o.ts_us + o.dur_us)
        contained = true;
    }
    EXPECT_TRUE(contained) << "inner span escapes its outer span";
  }
  EXPECT_EQ(inners, 4u);
  EXPECT_EQ(tids.size(), 4u);  // one tid per pool worker
}

TEST(Trace, DisabledTracingRecordsNothing) {
  ASSERT_FALSE(Tracer::global().enabled());
  ScopedSpan span("ignored", "test");
  EXPECT_FALSE(span.active());
  span.add(attr("k", "v"));  // must be a safe no-op
  Tracer::global().instant("ignored", "test");
}

TEST(Export, JsonlRoundTrip) {
  const std::string path = temp_path("obs_events.jsonl");
  {
    SinkGuard guard(std::make_shared<JsonlSink>(path));
    ScopedSpan outer("step", "search", {attr("flag", "-fgcse")});
    Tracer::global().instant("note", "driver", {attr("R", 0.95)});
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  bool saw_span = false, saw_instant = false;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    if (line.find("\"ph\":\"X\"") != std::string::npos) saw_span = true;
    if (line.find("\"ph\":\"i\"") != std::string::npos) saw_instant = true;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST(Export, ChromeTraceRoundTrip) {
  const std::string path = temp_path("obs_trace.json");
  {
    SinkGuard guard(std::make_shared<ChromeTraceSink>(path));
    ScopedSpan outer("tune", "driver", {attr("method", "RBR")});
    { ScopedSpan inner("probe", "search"); }
  }

  const std::string doc = slurp(path);
  ASSERT_FALSE(doc.empty());
  EXPECT_TRUE(JsonChecker(doc).valid());
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"tune\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"probe\""), std::string::npos);
  EXPECT_NE(doc.find("\"method\":\"RBR\""), std::string::npos);
}

TEST(Export, ChromeTraceStaysValidUnderConcurrentEmission) {
  // Hammer the tracer from a thread pool and check the Chrome trace still
  // holds up: well-formed JSON, every span a matched "X" complete event,
  // per-thread spans properly nested (never partially overlapping), and
  // close-order timestamps monotone per thread.
  const std::string path = temp_path("obs_trace_concurrent.json");
  constexpr std::size_t kItems = 64;
  {
    SinkGuard guard(std::make_shared<ChromeTraceSink>(path));
    support::ThreadPool pool(4);
    pool.parallel_for(0, kItems, [](std::size_t i) {
      ScopedSpan outer("outer", "test", {attr("i", i)});
      ScopedSpan inner("inner", "test");
    });
  }

  const std::string doc = slurp(path);
  ASSERT_FALSE(doc.empty());
  EXPECT_TRUE(JsonChecker(doc).valid());

  struct Span {
    std::uint64_t tid = 0;
    double ts = 0.0, dur = 0.0;
  };
  std::vector<Span> spans;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    Span s;
    ASSERT_EQ(std::sscanf(line.c_str() + line.find("\"tid\":"),
                          "\"tid\":%lu,\"ts\":%lf,\"dur\":%lf",
                          &s.tid, &s.ts, &s.dur), 3)
        << line;
    spans.push_back(s);
  }
  ASSERT_EQ(spans.size(), 2 * kItems);  // every span closed and exported

  std::map<std::uint64_t, std::vector<Span>> by_tid;
  for (const Span& s : spans) by_tid[s.tid].push_back(s);
  for (const auto& [tid, list] : by_tid) {
    // Complete events are appended when a span *closes*, so end times
    // must be non-decreasing in file order within one thread.
    for (std::size_t i = 1; i < list.size(); ++i)
      EXPECT_LE(list[i - 1].ts + list[i - 1].dur,
                list[i].ts + list[i].dur)
          << "tid " << tid << ": close order not monotone";
    // Any two spans on one thread either nest or are disjoint.
    for (std::size_t i = 0; i < list.size(); ++i) {
      for (std::size_t j = i + 1; j < list.size(); ++j) {
        const Span& a = list[i];
        const Span& b = list[j];
        const double a_end = a.ts + a.dur, b_end = b.ts + b.dur;
        const bool disjoint = a_end <= b.ts || b_end <= a.ts;
        const bool a_in_b = b.ts <= a.ts && a_end <= b_end;
        const bool b_in_a = a.ts <= b.ts && b_end <= a_end;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "tid " << tid << ": spans partially overlap";
      }
    }
  }
}

TEST(Export, MetricsJsonIncludesPercentiles) {
  MetricsRegistry::global().reset();
  Histogram& h = histogram("test.export_percentiles",
                           {1.0, 2.0, 3.0, 4.0});
  for (int i = 1; i <= 40; ++i) h.observe(i / 10.0);

  std::ostringstream os;
  write_metrics_json(MetricsRegistry::global().snapshot(), os);
  const std::string doc = os.str();
  EXPECT_TRUE(JsonChecker(doc).valid());
  EXPECT_NE(doc.find("\"p50\": 2"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"p90\":"), std::string::npos);
  EXPECT_NE(doc.find("\"p99\":"), std::string::npos);
}

TEST(Export, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  const std::string with_control = json_escape(std::string("a\x01z"));
  EXPECT_TRUE(JsonChecker("\"" + with_control + "\"").valid());
}

TEST(Export, MetricsJsonSnapshot) {
  MetricsRegistry::global().reset();
  counter("test.export_counter").inc(3);
  gauge("test.export_gauge").set(1.5);
  histogram("test.export_hist", {10.0, 20.0}).observe(15.0);

  std::ostringstream os;
  write_metrics_json(MetricsRegistry::global().snapshot(), os);
  const std::string doc = os.str();
  EXPECT_TRUE(JsonChecker(doc).valid());
  EXPECT_NE(doc.find("\"test.export_counter\": 3"), std::string::npos);
  EXPECT_NE(doc.find("\"test.export_hist\""), std::string::npos);
  EXPECT_NE(doc.find("\"counts\": [0,1,0]"), std::string::npos);
}

TEST(Integration, DriverMetricsMatchReportedCost) {
  // The acceptance invariant: after a tuning run, the registry's
  // search.configs_evaluated equals the TuningCost the driver reports —
  // on every path, including abandoned rating attempts.
  MetricsRegistry::global().reset();
  core::Peak peak(sim::sparc2());
  auto w = workloads::make_workload("SWIM");
  const core::MethodRun run = peak.tune_with_consultant(*w);

  EXPECT_GT(run.cost.configs_evaluated, 0u);
  EXPECT_EQ(counter("search.configs_evaluated").value(),
            run.cost.configs_evaluated);
  EXPECT_GT(counter("rating.started").value(), 0u);
  EXPECT_GT(counter("rating.invocations").value(), 0u);
}

TEST(Integration, DriverEmitsSpansWhenTracing) {
  auto sink = std::make_shared<VectorSink>();
  {
    SinkGuard guard(sink);
    core::Peak peak(sim::sparc2());
    auto w = workloads::make_workload("SWIM");
    (void)peak.tune_with_consultant(*w);
  }
  std::set<std::string> names;
  for (const TraceEvent& e : sink->events()) names.insert(e.name);
  EXPECT_TRUE(names.count("trace"));
  EXPECT_TRUE(names.count("profile"));
  EXPECT_TRUE(names.count("tune"));
  EXPECT_TRUE(names.count("rate_batch"));
  EXPECT_TRUE(names.count("probe_batch"));
  EXPECT_TRUE(names.count("ref_eval"));
  EXPECT_TRUE(names.count("transport"));
}

std::string arg(const TraceEvent& e, const std::string& key) {
  for (const Attr& a : e.args)
    if (a.key == key) return a.value;
  return "<none>";
}

TEST(Integration, DetailedPassRunsTheVmOncePerContext) {
  // SWIM.calc3 has one context; MGRID.resid has a new one at every
  // invocation; ART.match's time does not follow from its context.
  const std::pair<const char*, const char*> cases[] = {
      {"SWIM", "1"}, {"MGRID", "48"}, {"ART", "48"}};
  for (const auto& [name, vm_runs] : cases) {
    auto sink = std::make_shared<VectorSink>();
    auto w = workloads::make_workload(name);
    const workloads::Trace train = w->trace(workloads::DataSet::kTrain, 42);
    {
      SinkGuard guard(sink);
      (void)core::profile_workload(*w, train, sim::sparc2());
    }
    std::size_t passes = 0;
    for (const TraceEvent& e : sink->events()) {
      if (e.name != "detailed_pass") continue;
      ++passes;
      EXPECT_EQ(arg(e, "invocations"), "48") << name;
      EXPECT_EQ(arg(e, "vm_runs"), vm_runs) << name;
    }
    EXPECT_EQ(passes, 1u) << name;
  }
}

}  // namespace
}  // namespace peak::obs
