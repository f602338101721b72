/// \file peak_cli.cpp
/// The `peak` command-line tool: drive the library without writing code.
///
///   peak list                          available benchmarks
///   peak analyze  [--machine M]        consultant verdicts per section
///   peak tune     --benchmark B [--machine M] [--method X] [--csv]
///   peak sweep    [--machine M] [--csv|--markdown]   (the Figure 7 runs)
///   peak monitor  <host:port|port|port-file> [--once]   watch a live run
///   peak worker   (--connect H:P | --listen P)   serve a tuning fleet
///
/// Machines: sparc2 (default), p4. Methods: CBR MBR RBR AVG WHL (default:
/// consultant's choice).

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/peak.hpp"
#include "core/profile.hpp"
#include "core/config_store.hpp"
#include "core/rating_cache.hpp"
#include "core/report.hpp"
#include "core/jsonl.hpp"
#include "core/session.hpp"
#include "core/tuning_driver.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker_agent.hpp"
#include "fault/injector.hpp"
#include "fault/quarantine.hpp"
#include "obs/event_ring.hpp"
#include "obs/export.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/trace.hpp"
#include "proc/worker_table.hpp"
#include "support/cpus.hpp"
#include "support/http_server.hpp"
#include "support/shutdown.hpp"
#include "support/table.hpp"
#include "support/tcp.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace peak;

struct Args {
  std::string command;
  std::string benchmark;
  std::string machine = "sparc2";
  std::optional<rating::Method> method;
  std::string save_path;     ///< persist tuned configs (tune)
  std::string load_path;     ///< evaluate stored configs (apply)
  std::string trace_path;    ///< span/event export (.jsonl or Chrome JSON)
  std::string metrics_path;  ///< metrics registry snapshot (JSON)
  std::string folded_path;   ///< cost ledger as folded stacks (flamegraph)
  bool progress = false;     ///< live dashboard on stderr while running
  double fault_prob = 0.0;        ///< per-config fault probability (tune)
  std::uint64_t fault_seed = 0x5eed;  ///< fault injector seed
  bool no_guard = false;          ///< disable the guarded executor
  std::string journal_path;       ///< crash-safe tuning journal (tune)
  bool resume = false;            ///< replay the journal before tuning
  bool journal_strict = false;    ///< fail on corrupt journal lines
  /// Batched search probing: N >= 1 fans each probe round out over N
  /// slot threads (bit-identical outcome for every N; 0 is a usage
  /// error).
  unsigned search_threads = support::usable_cpus();
  /// Out-of-process isolation: N > 0 forks each probe round out over N
  /// supervised worker subprocesses (bit-identical to --search-threads N;
  /// worker crashes are contained and retried). 0 = in-process.
  unsigned isolate_workers = 0;
  std::string rating_cache_path;  ///< persistent rating cache (tune)
  /// -1 = telemetry off; 0 = serve on an ephemeral port; else that port.
  int telemetry_port = -1;
  std::string progress_json_path;  ///< periodic atomic ProgressModel JSON
  std::string monitor_target;      ///< host:port, port, or port file
  bool once = false;               ///< monitor: one snapshot, no tail
  bool csv = false;
  bool markdown = false;
  bool verbose = false;  ///< print the metrics table after the command
  /// Distributed tuning (tune): "listen:PORT" accepts `peak worker
  /// --connect` agents, --workers dials agents in --listen mode. Mutually
  /// exclusive with each other and with --fault-prob / --isolate-workers.
  std::string distribute;          ///< "listen:PORT" (tune)
  std::string workers_csv;         ///< "host1:p1,host2:p2" (tune)
  unsigned min_workers = 0;        ///< 0 = dialed endpoints, or 1
  std::string worker_connect;      ///< worker: coordinator host:port
  int worker_listen_port = -1;     ///< worker: -1 = connect mode
  std::string worker_name;         ///< worker: advertised fleet label

  /// True when distributed tuning is requested at all.
  [[nodiscard]] bool distributed() const {
    return !distribute.empty() || !workers_csv.empty();
  }

  /// The `--resume` command line to suggest after a graceful interrupt.
  [[nodiscard]] std::string resume_hint() const {
    if (journal_path.empty())
      return "re-run with --journal FILE to make interrupted runs "
             "resumable";
    std::string hint = "peak tune --benchmark " + benchmark;
    if (machine != "sparc2") hint += " --machine " + machine;
    hint += " --journal " + journal_path + " --resume";
    return "resume with: " + hint;
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: peak <list|analyze|tune|sweep|apply|monitor"
               "|worker> [options]\n"
               "  --benchmark NAME   (tune)\n"
               "  --machine sparc2|p4\n"
               "  --method CBR|MBR|RBR|AVG|WHL\n"
               "  --csv | --markdown\n"
               "  --save FILE   (tune: persist the winning config)\n"
               "  --load FILE   (apply: evaluate a stored config)\n"
               "  --trace FILE    span trace (.jsonl = JSONL, else Chrome "
               "trace JSON)\n"
               "  --metrics FILE  metrics registry snapshot as JSON\n"
               "  --cost-folded FILE  cost ledger as folded stacks "
               "(flamegraph.pl input)\n"
               "  --progress      live progress dashboard on stderr\n"
               "  --fault-prob P  (tune) inject faults into P of configs\n"
               "  --fault-seed S  (tune) fault injector seed\n"
               "  --no-guard      (tune) disable the guarded executor\n"
               "  --journal FILE  (tune) append-only crash-safe journal\n"
               "  --resume        (tune) replay the journal's ratings of this "
               "run, rate the rest\n"
               "  --journal-strict  (tune) fail on corrupt journal lines "
               "instead of\n"
               "                  skipping them\n"
               "  --search-threads N  (tune) parallel batched probing; "
               "default = usable CPUs,\n"
               "                  N >= 1, same result for every N\n"
               "  --isolate-workers N  (tune) rate in N supervised worker "
               "subprocesses\n"
               "                  (crash containment; bit-identical to "
               "--search-threads N)\n"
               "  --rating-cache FILE (tune) persistent content-addressed "
               "rating cache\n"
               "  --telemetry-port N  (tune) serve /metrics /snapshot "
               "/events /healthz\n"
               "                  /quarantine /cache/stats /workers on "
               "127.0.0.1:N (0 = ephemeral;\n"
               "                  bound port printed and written to "
               "<journal>.port or peak.port)\n"
               "  --progress-json FILE  (tune) periodically rewrite FILE "
               "(atomic) with\n"
               "                  the progress model as JSON\n"
               "  peak monitor <host:port|port|port-file> [--once]\n"
               "                  render a remote /snapshot, then tail "
               "/events (SSE)\n"
               "  --distribute listen:PORT  (tune) accept peak worker "
               "agents on PORT\n"
               "                  (0 = ephemeral) and tune over the fleet; "
               "bit-identical\n"
               "                  to --search-threads for any fleet size\n"
               "  --workers H1:P1,H2:P2  (tune) dial worker agents running "
               "--listen\n"
               "  --min-workers N  (tune) fleet size to wait for before "
               "tuning\n"
               "                  (default: the dialed endpoints, else 1)\n"
               "  peak worker (--connect HOST:PORT | --listen PORT) "
               "[--name NAME]\n"
               "                  serve rating tasks to a tuning "
               "coordinator; --connect\n"
               "                  dials one coordinator, --listen accepts "
               "them (0 =\n"
               "                  ephemeral port, printed on stderr)\n"
               "  --verbose       print the metrics table on exit\n");
  return 2;
}

sim::MachineModel machine_of(const Args& args) {
  return args.machine == "p4" ? sim::pentium4() : sim::sparc2();
}

std::string quarantine_json_of(const fault::Quarantine& quarantine) {
  const auto entries = quarantine.snapshot();
  std::ostringstream os;
  std::size_t quarantined = 0;
  for (const auto& [key, e] : entries)
    if (e.quarantined) ++quarantined;
  os << "{\"size\":" << quarantined << ",\"entries\":[";
  bool first = true;
  for (const auto& [key, e] : entries) {
    os << (first ? "" : ",") << "{\"config\":\"" << obs::json_escape(key)
       << "\",\"kind\":\"" << fault::to_string(e.kind)
       << "\",\"failures\":" << e.failures << ",\"quarantined\":"
       << (e.quarantined ? "true" : "false") << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string cache_stats_json_of(const core::RatingCache* cache) {
  std::ostringstream os;
  os << "{\"path\":\""
     << obs::json_escape(cache ? cache->path() : std::string())
     << "\",\"entries\":" << (cache ? cache->size() : 0)
     << ",\"hits\":" << obs::counter("search.cache.hit").value()
     << ",\"misses\":" << obs::counter("search.cache.miss").value()
     << ",\"stores\":" << obs::counter("search.cache.store").value()
     << "}";
  return os.str();
}

/// RAII wiring of --telemetry-port and --progress-json around a tune
/// command: starts the server (port file `<journal>.port`, or `peak.port`
/// without a journal) and the JSON writer, forwards run-phase changes,
/// stops both — final progress document included — on scope exit.
class TelemetryScope {
public:
  /// `quarantine` points at null until the driver that owns the
  /// registry is built, after profiling; the provider reads it
  /// atomically per request.
  TelemetryScope(
      const Args& args,
      std::shared_ptr<std::atomic<const fault::Quarantine*>> quarantine,
      const core::RatingCache* cache) {
    if (!args.progress_json_path.empty()) {
      obs::ProgressJsonWriter::Options wo;
      wo.path = args.progress_json_path;
      writer_.emplace(wo);
      writer_->start();
    }
    if (args.telemetry_port < 0) return;
    obs::TelemetryServer::Options o;
    o.port = static_cast<std::uint16_t>(args.telemetry_port);
    o.port_file = args.journal_path.empty() ? "peak.port"
                                            : args.journal_path + ".port";
    o.quarantine_json = [quarantine] {
      const fault::Quarantine* q = quarantine->load();
      return q ? quarantine_json_of(*q)
               : std::string("{\"size\":0,\"entries\":[]}");
    };
    o.cache_stats_json = [cache] { return cache_stats_json_of(cache); };
    o.workers_json = [] { return proc::WorkerTable::global().json(); };
    const std::string port_file = o.port_file;
    server_.emplace(std::move(o));
    std::string error;
    if (!server_->start(&error)) {
      std::fprintf(stderr, "telemetry: %s\n", error.c_str());
      server_.reset();
      failed_ = true;
      return;
    }
    obs::publish_run_event("tune_start",
                           "{\"kind\":\"tune_start\",\"text\":\"tuning "
                           "run started\"}");
    std::printf("  telemetry: http://127.0.0.1:%u/ (port file %s)\n",
                server_->port(), port_file.c_str());
  }

  ~TelemetryScope() {
    if (server_) {
      server_->set_run_phase("done");
      obs::publish_run_event("tune_done",
                             "{\"kind\":\"tune_done\",\"text\":\"tuning "
                             "run finished\"}");
      server_->stop();
    }
    if (writer_) writer_->stop();
  }

  /// False when --telemetry-port was given but the server could not
  /// start — the operator asked to observe this run and cannot.
  [[nodiscard]] bool ok() const { return !failed_; }

  void phase(const char* p) {
    if (server_) server_->set_run_phase(p);
  }

private:
  std::optional<obs::TelemetryServer> server_;
  std::optional<obs::ProgressJsonWriter> writer_;
  bool failed_ = false;
};

int cmd_list() {
  support::Table table;
  table.row({"benchmark", "section", "paper method", "paper invocations"});
  for (const auto& w : workloads::all_workloads())
    table.add_row()
        .cell(w->benchmark())
        .cell(w->ts_name())
        .cell(rating::to_string(w->paper_method()))
        .cell(std::to_string(w->paper_invocations()));
  table.print(std::cout);
  return 0;
}

int cmd_analyze(const Args& args) {
  const sim::MachineModel machine = machine_of(args);
  support::Table table;
  table.row({"section", "context vars", "#ctx", "chain", "checkpoint"});
  for (const auto& w : workloads::all_workloads()) {
    if (!args.benchmark.empty() && w->benchmark() != args.benchmark)
      continue;
    const workloads::Trace train =
        w->trace(workloads::DataSet::kTrain, 42);
    const core::ProfileData p =
        core::profile_workload(*w, train, machine);
    std::string chain;
    for (rating::Method m : p.decision.chain) {
      if (!chain.empty()) chain += ">";
      chain += rating::to_string(m);
    }
    table.add_row()
        .cell(w->full_name())
        .cell(p.context_analysis.describe(w->function()))
        .cell(std::to_string(p.num_contexts))
        .cell(chain)
        .cell(p.checkpoint_plan.describe(w->function()));
  }
  table.print(std::cout);
  return 0;
}

/// Parse and validate the dist flags into a ready coordinator that ships
/// `spec` to every worker. Returns false (with a diagnostic already
/// printed) when the fleet cannot form.
bool start_coordinator(const Args& args, const core::SessionSpec& spec,
                       std::optional<dist::Coordinator>& coordinator) {
  std::vector<std::string> endpoints;
  if (!args.workers_csv.empty()) {
    std::string rest = args.workers_csv;
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      endpoints.push_back(rest.substr(0, comma));
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    }
  }
  dist::DistPolicy policy;
  policy.min_workers = args.min_workers != 0 ? args.min_workers
                       : endpoints.empty()   ? 1
                                             : endpoints.size();
  coordinator.emplace(spec, policy);
  std::string error;
  if (!endpoints.empty()) {
    if (!coordinator->dial(endpoints, &error)) {
      std::fprintf(stderr, "distribute: %s\n", error.c_str());
      return false;
    }
  } else {
    // --distribute listen:PORT
    const std::string value = args.distribute;
    if (value.rfind("listen:", 0) != 0) {
      std::fprintf(stderr,
                   "distribute: expected listen:PORT, got '%s'\n",
                   value.c_str());
      return false;
    }
    char* end = nullptr;
    const unsigned long port = std::strtoul(value.c_str() + 7, &end, 10);
    if (end == value.c_str() + 7 || *end != '\0' || port > 65535) {
      std::fprintf(stderr, "distribute: bad port in '%s'\n", value.c_str());
      return false;
    }
    if (!coordinator->listen(static_cast<std::uint16_t>(port),
                             /*loopback_only=*/false, &error)) {
      std::fprintf(stderr, "distribute: %s\n", error.c_str());
      return false;
    }
    std::printf("  distribute: waiting for %zu worker%s on port %u "
                "(peak worker --connect HOST:%u)\n",
                policy.min_workers, policy.min_workers == 1 ? "" : "s",
                coordinator->port(), coordinator->port());
    std::fflush(stdout);
  }
  if (!coordinator->wait_for_fleet(&error)) {
    std::fprintf(stderr, "distribute: %s\n", error.c_str());
    return false;
  }
  std::printf("  distribute: fleet of %zu worker%s ready\n",
              coordinator->fleet_size(),
              coordinator->fleet_size() == 1 ? "" : "s");
  return true;
}

/// The one scenario `peak tune` tunes in and `peak apply` measures in:
/// Peak's, with default options.
core::Session session_of(const Args& args,
                         const workloads::Workload& workload) {
  const sim::MachineModel machine = machine_of(args);
  return core::Session(
      core::session_spec({}, workload.benchmark(), machine.name), &workload,
      machine);
}

/// `peak tune`: every flag tunes the same Session. Flags only add a
/// journal, a rating cache, a fault injector, the guard switch, slot
/// threads or a transport to the driver.
int cmd_tune(const Args& args) {
  if (args.benchmark.empty()) return usage();
  if (args.distributed()) {
    // Workers rebuild the scenario from the shipped SessionSpec, which
    // carries no fault injector. Subprocess isolation is the same
    // transport solved a different way. Both refuse loudly rather than
    // silently diverge.
    if (!args.distribute.empty() && !args.workers_csv.empty()) {
      std::fprintf(stderr,
                   "--distribute and --workers are mutually exclusive\n");
      return 2;
    }
    if (args.fault_prob > 0.0) {
      std::fprintf(stderr,
                   "--fault-prob cannot combine with distributed tuning "
                   "(workers carry no fault injector)\n");
      return 2;
    }
    if (args.isolate_workers > 0) {
      std::fprintf(stderr,
                   "--isolate-workers cannot combine with distributed "
                   "tuning (pick one worker transport)\n");
      return 2;
    }
  }
  const auto workload = workloads::make_workload(args.benchmark);
  if (!workload) {
    std::fprintf(stderr, "unknown benchmark '%s'\n",
                 args.benchmark.c_str());
    return 1;
  }
  const core::Session session = session_of(args, *workload);
  const sim::MachineModel& machine = session.machine();
  const sim::FlagEffectModel& effects = session.effects();

  // Must outlive the driver (and the telemetry server, whose /cache/stats
  // provider reads it).
  std::optional<core::RatingCache> cache;
  if (!args.rating_cache_path.empty()) cache.emplace(args.rating_cache_path);

  // The quarantine lives in the driver, which is built only after
  // profiling; the /quarantine provider reads this pointer per request.
  auto quarantine_view =
      std::make_shared<std::atomic<const fault::Quarantine*>>(nullptr);
  TelemetryScope telemetry(args, quarantine_view,
                           cache ? &*cache : nullptr);
  if (!telemetry.ok()) return 1;
  telemetry.phase("profiling");
  (void)session.profile();

  fault::FaultModel model;
  model.fault_prob = args.fault_prob;
  model.seed = args.fault_seed;
  fault::FaultInjector injector(model);
  // The -O3 start config is shipping production code; faulting it would
  // only test the harness, not the tuner.
  injector.exempt(search::o3_config(effects.space()));

  core::DriverOptions options;
  if (args.fault_prob > 0.0) options.fault.injector = &injector;
  options.fault.guard_execution = !args.no_guard;
  options.fault.journal_path = args.journal_path;
  options.fault.resume = args.resume;
  options.fault.journal_strict = args.journal_strict;
  options.search_threads = args.search_threads;
  options.isolate_workers = args.isolate_workers;
  if (cache) options.rating_cache = &*cache;

  // Must outlive the driver: the evaluator talks to the fleet on every
  // probe round. Declared before `driver` so its destructor (bye frames,
  // socket teardown) runs after the driver's.
  std::optional<dist::Coordinator> coordinator;
  if (args.distributed()) {
    telemetry.phase("fleet");
    if (!start_coordinator(args, session.spec(), coordinator)) return 1;
    options.coordinator = &*coordinator;
  }

  core::TuningDriver driver = session.driver(options);
  quarantine_view->store(&driver.quarantine());
  telemetry.phase("tuning");
  core::TuningOutcome outcome;
  try {
    outcome = args.method ? driver.tune(*args.method) : driver.tune_auto();
  } catch (const support::ShutdownRequested& e) {
    // Unwinding through here runs the driver/cache/telemetry destructors:
    // the journal and rating cache are already durable per record, the
    // telemetry server stops, and the supervisor (if any) has reaped its
    // workers before rethrowing. A distributed fleet gets an explicit
    // goodbye first: the in-flight round has already drained (shutdown
    // only surfaces between rounds), so every worker is idle and the bye
    // frame lets agents in --connect mode exit cleanly.
    if (coordinator) coordinator->shutdown();
    telemetry.phase("interrupted");
    std::fprintf(stderr, "\ninterrupted by signal %d; %s\n", e.signal(),
                 args.resume_hint().c_str());
    return 128 + e.signal();
  } catch (const fault::FaultError& e) {
    std::fprintf(stderr, "tuning died on an unguarded fault: %s\n",
                 e.what());
    return 1;
  } catch (const core::JournalError& e) {
    std::fprintf(stderr, "refusing to resume: %s\n", e.what());
    return 1;
  } catch (const dist::FleetLost& e) {
    // Every record up to the failed round is durable, as after a signal.
    std::fprintf(stderr, "%s; %s\n", e.what(),
                 args.resume_hint().c_str());
    return 1;
  }
  telemetry.phase("reporting");
  const double improvement = session.ref_improvement_pct(outcome.best_config);

  std::printf("%s on %s via %s\n", workload->full_name().c_str(),
              machine.name.c_str(), rating::to_string(outcome.method));
  std::printf("  improvement over -O3 (ref): %.2f%%\n", improvement);
  std::printf("  flags removed: %s\n",
              outcome.best_config
                  .describe(effects.space(), /*invert=*/true)
                  .c_str());
  std::printf("  cost: %zu invocations (%.2f program runs)\n",
              outcome.cost.invocations, outcome.cost.program_runs);
  if (args.fault_prob > 0.0)
    std::printf("  faults: prob %.3f seed %llu, guard %s\n",
                args.fault_prob,
                static_cast<unsigned long long>(args.fault_seed),
                args.no_guard ? "OFF" : "on");
  if (!args.journal_path.empty() && args.resume)
    std::printf("  journal: %s (resumed, %llu ratings replayed)\n",
                args.journal_path.c_str(),
                static_cast<unsigned long long>(
                    obs::counter("journal.replayed").value()));
  else if (!args.journal_path.empty())
    std::printf("  journal: %s\n", args.journal_path.c_str());
  if (coordinator) {
    const dist::CoordinatorStats& stats = coordinator->stats();
    std::printf("  fleet: %zu workers (%llu tasks dispatched, %llu "
                "requeued, %llu lost, %llu respawned)\n",
                coordinator->fleet_size(),
                static_cast<unsigned long long>(stats.tasks_dispatched),
                static_cast<unsigned long long>(stats.tasks_requeued),
                static_cast<unsigned long long>(stats.workers_lost),
                static_cast<unsigned long long>(stats.workers_respawned));
    coordinator->shutdown();
  }
  if (cache)
    std::printf("  rating cache: %s (%zu entries)\n",
                cache->path().c_str(), cache->size());
  const auto& quarantine = driver.quarantine();
  if (quarantine.size() > 0 || args.fault_prob > 0.0) {
    std::printf("  quarantined configs: %zu\n", quarantine.size());
    for (const auto& [key, entry] : quarantine.entries()) {
      if (!entry.quarantined) continue;
      std::printf("    %s  (%s, %zu failures)\n", key.c_str(),
                  fault::to_string(entry.kind), entry.failures);
    }
  }

  if (!args.save_path.empty()) {
    core::ConfigStore store(effects.space());
    store.load_file(args.save_path);  // merge with existing records
    core::StoredConfig entry;
    entry.config = outcome.best_config;
    entry.method = outcome.method;
    entry.improvement_pct = improvement;
    for (const auto& [key, q] : quarantine.entries())
      if (q.quarantined)
        entry.quarantined.push_back({key, q.kind, q.failures});
    store.put(workload->full_name(), machine.name, entry);
    if (!store.save_file(args.save_path)) {
      std::fprintf(stderr, "failed to write %s\n", args.save_path.c_str());
      return 1;
    }
    std::printf("  saved to %s\n", args.save_path.c_str());
  }
  return 0;
}

/// `peak apply`: the stored config measured on the ref trace of the
/// scenario `peak tune` measured it in, so both print the same number.
int cmd_apply(const Args& args) {
  if (args.benchmark.empty() || args.load_path.empty()) return usage();
  const auto workload = workloads::make_workload(args.benchmark);
  if (!workload) {
    std::fprintf(stderr, "unknown benchmark '%s'\n",
                 args.benchmark.c_str());
    return 1;
  }
  const core::Session session = session_of(args, *workload);
  const sim::MachineModel& machine = session.machine();
  core::ConfigStore store(session.effects().space());
  if (!store.load_file(args.load_path)) {
    std::fprintf(stderr, "cannot read %s\n", args.load_path.c_str());
    return 1;
  }
  const auto entry = store.get(workload->full_name(), machine.name);
  if (!entry) {
    std::fprintf(stderr, "no stored config for %s @ %s\n",
                 workload->full_name().c_str(), machine.name.c_str());
    return 1;
  }
  std::printf("%s @ %s (stored via %s): improvement %.2f%% on ref\n",
              workload->full_name().c_str(), machine.name.c_str(),
              rating::to_string(entry->method),
              session.ref_improvement_pct(entry->config));
  return 0;
}

/// Resolve the `peak monitor` target — "host:port", a bare port (host
/// 127.0.0.1), or a port file as written next to the journal.
bool resolve_monitor_target(const std::string& target, std::string* host,
                            std::uint16_t* port) {
  const auto parse_port = [&](const std::string& text) {
    char* end = nullptr;
    const unsigned long p = std::strtoul(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || p == 0 || p > 65535)
      return false;
    *port = static_cast<std::uint16_t>(p);
    return true;
  };
  const auto colon = target.rfind(':');
  if (colon != std::string::npos) {
    *host = target.substr(0, colon);
    return !host->empty() && parse_port(target.substr(colon + 1));
  }
  *host = "127.0.0.1";
  if (!target.empty() &&
      std::all_of(target.begin(), target.end(), [](unsigned char c) {
        return std::isdigit(c);
      }))
    return parse_port(target);
  std::ifstream in(target);
  std::string line;
  if (!in || !std::getline(in, line)) return false;
  return parse_port(line);
}

/// Print one complete SSE frame: `[kind] text`, where text comes from the
/// data payload's "text" member (raw data when it has none).
void print_sse_frame(const std::string& frame) {
  std::string event = "message", data;
  std::size_t pos = 0;
  while (pos <= frame.size()) {
    const std::size_t eol = std::min(frame.find('\n', pos), frame.size());
    const std::string line = frame.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("event: ", 0) == 0) event = line.substr(7);
    else if (line.rfind("data: ", 0) == 0) data = line.substr(6);
    // ignore "id: " bookkeeping and ":" comments (keepalives)
  }
  if (data.empty()) return;
  std::string text = data;
  try {
    const core::jsonl::JsonValue v = core::jsonl::JsonParser(data).parse();
    if (v.has("text")) text = v.at("text").as_string();
  } catch (const std::exception&) {
    // non-JSON payload: print it raw
  }
  std::printf("  [%s] %s\n", event.c_str(), text.c_str());
  std::fflush(stdout);
}

int cmd_monitor(const Args& args) {
  if (args.monitor_target.empty()) return usage();
  std::string host;
  std::uint16_t port = 0;
  if (!resolve_monitor_target(args.monitor_target, &host, &port)) {
    std::fprintf(stderr, "monitor: cannot resolve '%s'\n",
                 args.monitor_target.c_str());
    return 1;
  }
  const support::HttpClientResult snap =
      support::http_get(host, port, "/snapshot");
  if (!snap.ok || snap.status != 200) {
    std::fprintf(stderr, "monitor: GET /snapshot failed: %s\n",
                 snap.ok ? ("HTTP " + std::to_string(snap.status)).c_str()
                         : snap.error.c_str());
    return 1;
  }
  obs::RemoteSnapshot remote;
  try {
    remote = obs::parse_snapshot_json(snap.body);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "monitor: malformed snapshot: %s\n", e.what());
    return 1;
  }
  std::printf("%s:%u  phase %s  up %.1fs\n", host.c_str(), port,
              remote.run_phase.c_str(),
              static_cast<double>(remote.uptime_us) / 1e6);
  std::fputs(obs::render_progress_frame(remote.progress).c_str(), stdout);
  if (args.once) return 0;

  // Tail events published after the snapshot; the stream ends when the
  // run finishes (the server closes every connection on stop).
  const std::string path =
      "/events?from=" + std::to_string(remote.events_head_seq + 1);
  std::string buffer, error;
  const bool ok = support::http_stream(
      host, port, path,
      [&buffer](std::string_view chunk) {
        buffer.append(chunk);
        std::size_t sep;
        while ((sep = buffer.find("\n\n")) != std::string::npos) {
          print_sse_frame(buffer.substr(0, sep));
          buffer.erase(0, sep + 2);
        }
        return true;  // empty chunk = read timeout; keep waiting
      },
      &error);
  if (!ok) {
    std::fprintf(stderr, "monitor: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

/// `peak worker`: a long-lived rating agent. Connect mode dials one
/// coordinator and exits when that session ends; listen mode serves
/// coordinators until SIGINT/SIGTERM.
int cmd_worker(const Args& args) {
  dist::WorkerOptions options;
  options.name = args.worker_name;
  if (!args.worker_connect.empty()) {
    if (args.worker_listen_port >= 0) {
      std::fprintf(stderr,
                   "peak worker: --connect and --listen are mutually "
                   "exclusive\n");
      return 2;
    }
    std::string host;
    std::uint16_t port = 0;
    if (!support::split_host_port(args.worker_connect, &host, &port)) {
      std::fprintf(stderr, "peak worker: bad --connect '%s'\n",
                   args.worker_connect.c_str());
      return 2;
    }
    options.connect_host = host;
    options.connect_port = port;
  } else if (args.worker_listen_port >= 0) {
    options.listen = true;
    options.listen_port =
        static_cast<std::uint16_t>(args.worker_listen_port);
  } else {
    std::fprintf(stderr,
                 "peak worker: need --connect HOST:PORT or --listen "
                 "PORT\n");
    return usage();
  }
  dist::WorkerAgent agent(options);
  return agent.run();
}

int cmd_sweep(const Args& args) {
  const sim::MachineModel machine = machine_of(args);
  core::Peak peak(machine);
  std::vector<core::BenchmarkResult> results;
  for (const std::string& name : workloads::figure7_benchmarks()) {
    const auto workload = workloads::make_workload(name);
    std::vector<rating::Method> extra;
    if (name == "MGRID") extra.push_back(rating::Method::kCBR);
    results.push_back(peak.run_benchmark(*workload, true, extra));
  }
  if (args.csv)
    std::cout << core::to_csv(results);
  else
    std::cout << core::to_markdown(results);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc < 2) return usage();
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--benchmark") {
      const char* v = next();
      if (!v) return usage();
      args.benchmark = v;
    } else if (arg == "--machine") {
      const char* v = next();
      if (!v) return usage();
      args.machine = v;
    } else if (arg == "--method") {
      const char* v = next();
      if (!v) return usage();
      args.method = rating::parse_method(v);
      if (!args.method) return usage();
    } else if (arg == "--save") {
      const char* v = next();
      if (!v) return usage();
      args.save_path = v;
    } else if (arg == "--load") {
      const char* v = next();
      if (!v) return usage();
      args.load_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return usage();
      args.trace_path = v;
    } else if (arg == "--metrics") {
      const char* v = next();
      if (!v) return usage();
      args.metrics_path = v;
    } else if (arg == "--cost-folded") {
      const char* v = next();
      if (!v) return usage();
      args.folded_path = v;
    } else if (arg == "--progress") {
      args.progress = true;
    } else if (arg == "--fault-prob") {
      const char* v = next();
      if (!v) return usage();
      args.fault_prob = std::strtod(v, nullptr);
      if (args.fault_prob < 0.0 || args.fault_prob > 1.0) return usage();
    } else if (arg == "--fault-seed") {
      const char* v = next();
      if (!v) return usage();
      args.fault_seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--no-guard") {
      args.no_guard = true;
    } else if (arg == "--journal") {
      const char* v = next();
      if (!v) return usage();
      args.journal_path = v;
    } else if (arg == "--resume") {
      args.resume = true;
    } else if (arg == "--journal-strict") {
      args.journal_strict = true;
    } else if (arg == "--isolate-workers") {
      const char* v = next();
      if (!v) return usage();
      args.isolate_workers =
          static_cast<unsigned>(std::strtoul(v, nullptr, 0));
    } else if (arg == "--search-threads") {
      const char* v = next();
      if (!v) return usage();
      args.search_threads =
          static_cast<unsigned>(std::strtoul(v, nullptr, 0));
      if (args.search_threads == 0) return usage();
    } else if (arg == "--distribute") {
      const char* v = next();
      if (!v) return usage();
      args.distribute = v;
    } else if (arg == "--workers") {
      const char* v = next();
      if (!v) return usage();
      args.workers_csv = v;
    } else if (arg == "--min-workers") {
      const char* v = next();
      if (!v) return usage();
      args.min_workers = static_cast<unsigned>(std::strtoul(v, nullptr, 0));
      if (args.min_workers == 0) return usage();
    } else if (arg == "--connect") {
      const char* v = next();
      if (!v) return usage();
      args.worker_connect = v;
    } else if (arg == "--listen") {
      const char* v = next();
      if (!v) return usage();
      char* end = nullptr;
      const unsigned long p = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || p > 65535) return usage();
      args.worker_listen_port = static_cast<int>(p);
    } else if (arg == "--name") {
      const char* v = next();
      if (!v) return usage();
      args.worker_name = v;
    } else if (arg == "--rating-cache") {
      const char* v = next();
      if (!v) return usage();
      args.rating_cache_path = v;
    } else if (arg == "--telemetry-port") {
      const char* v = next();
      if (!v) return usage();
      char* end = nullptr;
      const unsigned long p = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || p > 65535) return usage();
      args.telemetry_port = static_cast<int>(p);
    } else if (arg == "--progress-json") {
      const char* v = next();
      if (!v) return usage();
      args.progress_json_path = v;
    } else if (arg == "--once") {
      args.once = true;
    } else if (arg == "--csv") {
      args.csv = true;
    } else if (arg == "--markdown") {
      args.markdown = true;
    } else if (arg == "--verbose") {
      args.verbose = true;
    } else if (args.command == "monitor" && args.monitor_target.empty() &&
               arg.rfind("--", 0) != 0) {
      args.monitor_target = arg;
    } else {
      return usage();
    }
  }

  if (!args.trace_path.empty()) {
    auto sink = obs::make_file_sink(args.trace_path);
    if (!sink) {
      std::fprintf(stderr, "cannot open trace file %s\n",
                   args.trace_path.c_str());
      return 1;
    }
    obs::Tracer::global().set_sink(std::move(sink));
  }

  // A first SIGINT/SIGTERM during `peak tune` unwinds gracefully (journal
  // and cache stay durable, workers get reaped or sent a bye frame, a
  // --resume hint prints); a second force-exits with 128+signal. A
  // listening `peak worker` uses the same flag to stop accepting.
  if (args.command == "tune" || args.command == "worker")
    support::install_shutdown_handlers();

  obs::ProgressView progress;
  if (args.progress) progress.start();

  int rc;
  if (args.command == "list")
    rc = cmd_list();
  else if (args.command == "analyze")
    rc = cmd_analyze(args);
  else if (args.command == "tune")
    rc = cmd_tune(args);
  else if (args.command == "sweep")
    rc = cmd_sweep(args);
  else if (args.command == "apply")
    rc = cmd_apply(args);
  else if (args.command == "monitor")
    rc = cmd_monitor(args);
  else if (args.command == "worker")
    rc = cmd_worker(args);
  else
    rc = usage();

  if (args.progress) progress.stop();

  // Dropping the sink flushes and closes the trace file.
  obs::Tracer::global().set_sink(nullptr);
  if (!args.folded_path.empty() &&
      !obs::write_folded_file(obs::Ledger::global().snapshot(),
                              args.folded_path)) {
    std::fprintf(stderr, "failed to write %s\n", args.folded_path.c_str());
    if (rc == 0) rc = 1;
  }
  if (!args.metrics_path.empty() &&
      !obs::write_metrics_json_file(obs::MetricsRegistry::global().snapshot(),
                                    args.metrics_path)) {
    std::fprintf(stderr, "failed to write %s\n", args.metrics_path.c_str());
    if (rc == 0) rc = 1;
  }
  if (args.verbose)
    obs::metrics_table(obs::MetricsRegistry::global().snapshot())
        .print(std::cerr);
  return rc;
}
