#!/usr/bin/env python3
"""Schema validator for the machine-readable BENCH_*.json artifacts.

The bench binaries (bench_headline and friends) emit JSON next to their
stdout report so dashboards and regression drivers can consume the numbers
without scraping text. This script checks those files against the expected
schema (headline, engine_compare, fault_sweep, crash_sweep, dist_sweep)
and rejects NaN/Infinity
anywhere in a document — run it in CI after the benches, or standalone:

    tools/check_bench_json.py BENCH_headline.json [...]
    tools/check_bench_json.py --self-test

Regression gate: with --compare BASELINE.json, the engine speedups of each
candidate file (the "engine_speedup" section of a headline or
engine_compare document) are checked against the baseline's. A kernel
whose speedup falls more than --max-regress-pct percent (default 50) below
the baseline fails the check:

    tools/check_bench_json.py ENGINE_compare.json \
        --compare BENCH_headline.json --max-regress-pct 50

Metrics-drift sentinel: with --compare-metrics BASELINE.json, the
candidate's "metrics" section (counters, gauges, histogram counts) and the
cycle totals of its "cost_attribution" ledger are diffed against the
baseline's. The simulation is deterministic, so these should be identical
run to run; a key that drifts more than --max-metric-drift-pct percent
(default 10), or that exists in the baseline but not the candidate, fails
the check. Wall-clock-based values (anything matching a --waive-metric
substring; "wall" is always waived) are exempt:

    tools/check_bench_json.py BENCH_headline.json \
        --compare-metrics baselines/BENCH_headline.json

Exit status: 0 if every file validates (or the self-test passes), 1
otherwise. Stdlib only — no third-party dependencies.
"""

import json
import math
import sys

NUMBER = (int, float)


class SchemaError(Exception):
    pass


def _require(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def _check_number(obj, key, path, minimum=None):
    _require(key in obj, path, f"missing key '{key}'")
    value = obj[key]
    _require(isinstance(value, NUMBER) and not isinstance(value, bool),
             f"{path}.{key}", f"expected a number, got {type(value).__name__}")
    if minimum is not None:
        _require(value >= minimum, f"{path}.{key}",
                 f"expected >= {minimum}, got {value}")


def _check_string(obj, key, path):
    _require(key in obj, path, f"missing key '{key}'")
    _require(isinstance(obj[key], str) and obj[key],
             f"{path}.{key}", "expected a non-empty string")


def _check_bool(obj, key, path):
    _require(key in obj, path, f"missing key '{key}'")
    _require(isinstance(obj[key], bool), f"{path}.{key}",
             "expected a boolean")


def _check_all_finite(value, path):
    """Reject NaN/Infinity anywhere in the document.

    Python's json module happily parses the (non-standard) NaN/Infinity
    literals, and a bench that averages a failed run into its summary will
    emit exactly those. A NaN in a dashboard artifact is always a bug.
    """
    if isinstance(value, bool):
        return
    if isinstance(value, NUMBER):
        _require(math.isfinite(value), path,
                 f"non-finite number {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _check_all_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_all_finite(item, f"{path}[{i}]")


def check_metrics(metrics, path):
    _require(isinstance(metrics, dict), path, "expected an object")
    for section in ("counters", "gauges", "histograms"):
        _require(section in metrics, path, f"missing key '{section}'")
        _require(isinstance(metrics[section], dict),
                 f"{path}.{section}", "expected an object")
    for name, value in metrics["counters"].items():
        _require(isinstance(value, int) and value >= 0,
                 f"{path}.counters.{name}", "expected a non-negative integer")
    for name, value in metrics["gauges"].items():
        _require(isinstance(value, NUMBER) and not isinstance(value, bool),
                 f"{path}.gauges.{name}", "expected a number")
    for name, hist in metrics["histograms"].items():
        hpath = f"{path}.histograms.{name}"
        _require(isinstance(hist, dict), hpath, "expected an object")
        for key in ("bounds", "counts"):
            _require(isinstance(hist.get(key), list), f"{hpath}.{key}",
                     "expected an array")
        _require(len(hist["counts"]) == len(hist["bounds"]) + 1, hpath,
                 "counts must have len(bounds)+1 entries (overflow bucket)")
        _require(list(hist["bounds"]) == sorted(hist["bounds"]), hpath,
                 "bounds must be sorted ascending")
        _check_number(hist, "count", hpath, minimum=0)
        _check_number(hist, "sum", hpath)
        _require(sum(hist["counts"]) == hist["count"], hpath,
                 "bucket counts must sum to 'count'")
        # Percentile summaries are optional (only emitted for non-empty
        # histograms) but must be ordered when present.
        quantiles = [hist[k] for k in ("p50", "p90", "p99") if k in hist]
        for q in quantiles:
            _require(isinstance(q, NUMBER) and not isinstance(q, bool),
                     hpath, "percentiles must be numbers")
        _require(quantiles == sorted(quantiles), hpath,
                 "percentiles must be non-decreasing (p50 <= p90 <= p99)")


#: ledger phase leaf -> the metrics gauge that accumulates the same cycles.
#: search_overhead is wall-only (charged with 0 cycles), so it has no
#: gauge counterpart.
PHASE_GAUGES = {
    "timed": "sim.cycles_timed",
    "precondition": "sim.cycles_precondition",
    "checkpoint": "sim.cycles_checkpoint",
    "faulted": "sim.cycles_faulted",
    "retry": "sim.cycles_retry",
    "whole_program": "sim.cycles_whole_program_surcharge",
    "profile": "profile.cycles",
}

#: |a - b| <= CONSERVATION_TOL * max(|b|, 1): the ledger's float
#: accumulation slack, matching the C++-side ctest tolerance.
CONSERVATION_TOL = 1e-3


def _close(a, b):
    return abs(a - b) <= CONSERVATION_TOL * max(abs(b), 1.0)


def _check_ledger_node(node, path):
    """Validate one cost_attribution node and return phase self-cycle sums."""
    _require(isinstance(node, dict), path, "expected an object")
    _check_string(node, "name", path)
    for key in ("cycles_self", "cycles_total", "wall_us_self",
                "wall_us_total"):
        _check_number(node, key, path, minimum=0)
    _require(isinstance(node.get("children"), list), f"{path}.children",
             "expected an array")
    phase_cycles = {}
    if node["name"] in PHASE_GAUGES:
        phase_cycles[node["name"]] = node["cycles_self"]
    child_cycles = 0.0
    child_wall = 0.0
    for i, child in enumerate(node["children"]):
        for phase, cycles in _check_ledger_node(
                child, f"{path}.children[{i}]").items():
            phase_cycles[phase] = phase_cycles.get(phase, 0.0) + cycles
        child_cycles += child["cycles_total"]
        child_wall += child["wall_us_total"]
    _require(_close(node["cycles_self"] + child_cycles,
                    node["cycles_total"]), path,
             "conservation violated: cycles_total != cycles_self + "
             "sum(children cycles_total)")
    _require(_close(node["wall_us_self"] + child_wall,
                    node["wall_us_total"]), path,
             "conservation violated: wall_us_total != wall_us_self + "
             "sum(children wall_us_total)")
    return phase_cycles


def check_cost_attribution(ledger, metrics, path):
    """Schema + conservation for the ledger, reconciled against gauges."""
    phase_cycles = _check_ledger_node(ledger, path)
    _require(ledger["name"] == "all", f"{path}.name",
             "the ledger root must be named 'all'")
    if not isinstance(metrics, dict):
        return
    gauges = metrics.get("gauges", {})
    for phase, gauge in PHASE_GAUGES.items():
        if gauge not in gauges:
            continue
        _require(_close(phase_cycles.get(phase, 0.0), gauges[gauge]),
                 f"{path}", f"ledger phase {phase!r} "
                 f"({phase_cycles.get(phase, 0.0)!r} cycles) does not "
                 f"reconcile with gauge {gauge!r} ({gauges[gauge]!r})")


def check_engine_speedup(fragment, path):
    _require(isinstance(fragment, dict), path, "expected an object")
    _require(isinstance(fragment.get("kernels"), list) and
             fragment["kernels"], f"{path}.kernels",
             "expected a non-empty array")
    for i, kernel in enumerate(fragment["kernels"]):
        kpath = f"{path}.kernels[{i}]"
        _check_string(kernel, "name", kpath)
        _check_number(kernel, "interp_ns", kpath, minimum=0)
        _check_number(kernel, "vm_ns", kpath, minimum=0)
        _check_number(kernel, "speedup", kpath, minimum=0)
        _require(kernel["interp_ns"] > 0 and kernel["vm_ns"] > 0,
                 kpath, "timings must be positive")
    _check_number(fragment, "geomean", path, minimum=0)
    _require(fragment["geomean"] > 0, f"{path}.geomean",
             "expected a positive geomean")


def check_search(fragment, path):
    """The parallel-search / rating-cache section of a headline document.

    What is timed: a tune that carries rating work, named by
    `timed_benchmark` and `timed_machine` (EQUAKE on p4 through the
    consultant chain, where CBR and MBR are abandoned and RBR finishes),
    at 1 thread and at `threads` threads, best of 3 samples each. A sample
    is `timed_tunes` back-to-back tunes: one ~0.2 s tune is too short to
    time on a shared host, a handful carry about a second of serial
    rating work. Rating is the
    work the batched fan-out spreads over its slots, so only a tune that
    is mostly rating can show what the fan-out buys; a ~2-3 ms SWIM CBR
    tune times its fixed costs instead (a serial base-rating prologue,
    one cold start per slot clone), and on a 4-core host it ran slower
    on 4 threads than on 1.
    `benchmark` names the untimed arms (SWIM): five seeds at 1 and at
    `threads` threads, and the cold/warm rating-cache pair.

    Two hard gates live here rather than in the drift sentinel, because
    they are correctness claims, not reproducibility claims: every
    threaded run, timed or not, must produce the bit-identical outcome of
    its serial run, and a warm rating-cache rerun must serve >90% of
    lookups from disk. The wall-clock speedup gate only applies when the
    recording process could use at least 4 CPUs (`hardware_concurrency`
    counts the CPUs in its affinity mask, what `nproc` prints) — on a 1-
    or 2-core box, or in a run confined to fewer cores, the >= 2x target
    is unreachable no matter how good the fan-out is.
    """
    _require(isinstance(fragment, dict), path, "expected an object")
    _check_string(fragment, "benchmark", path)
    _check_string(fragment, "timed_benchmark", path)
    _check_string(fragment, "timed_machine", path)
    _check_number(fragment, "timed_tunes", path, minimum=1)
    _check_number(fragment, "threads", path, minimum=1)
    _check_number(fragment, "hardware_concurrency", path, minimum=1)
    _check_number(fragment, "serial_wall_s", path, minimum=0)
    _check_number(fragment, "parallel_wall_s", path, minimum=0)
    _check_number(fragment, "search_speedup", path, minimum=0)
    _check_bool(fragment, "outcome_identical", path)
    _require(fragment["outcome_identical"], f"{path}.outcome_identical",
             "parallel search outcome differs from the serial outcome")
    if fragment["hardware_concurrency"] >= 4:
        _require(fragment["search_speedup"] >= 2.0,
                 f"{path}.search_speedup",
                 f"expected >= 2.0x on a {fragment['hardware_concurrency']}"
                 f"-thread machine, got {fragment['search_speedup']!r}")
    cache = fragment.get("cache")
    _require(isinstance(cache, dict), f"{path}.cache", "expected an object")
    cpath = f"{path}.cache"
    _check_number(cache, "cold_stores", cpath, minimum=1)
    _check_number(cache, "warm_hits", cpath, minimum=0)
    _check_number(cache, "warm_misses", cpath, minimum=0)
    _check_number(cache, "warm_hit_rate", cpath, minimum=0)
    _require(cache["warm_hit_rate"] <= 1.0, f"{cpath}.warm_hit_rate",
             "expected a rate in [0, 1]")
    _require(cache["warm_hit_rate"] > 0.9, f"{cpath}.warm_hit_rate",
             f"warm rerun served only {cache['warm_hit_rate']!r} "
             "of lookups from the cache (gate: > 0.9)")
    _check_bool(cache, "warm_outcome_identical", cpath)
    _require(cache["warm_outcome_identical"],
             f"{cpath}.warm_outcome_identical",
             "warm cache rerun outcome differs from the cold run")


def check_telemetry(fragment, path):
    """The live-telemetry section of a headline document.

    The hard gate is non-perturbation: a tuning run scraped at full tilt
    must produce the bit-identical outcome of an unobserved run. Scrape
    latency percentiles are recorded for dashboards but not gated (they
    are wall-clock, machine-dependent); errors are gated at zero because
    every hammered request hit a handler the server itself registered.
    """
    _require(isinstance(fragment, dict), path, "expected an object")
    _check_number(fragment, "scrapes", path, minimum=1)
    _check_number(fragment, "errors", path, minimum=0)
    _require(fragment["errors"] == 0, f"{path}.errors",
             f"scrape hammer saw {fragment['errors']!r} failed requests")
    _check_number(fragment, "scrape_p50_us", path, minimum=0)
    _check_number(fragment, "scrape_p99_us", path, minimum=0)
    _require(fragment["scrape_p50_us"] <= fragment["scrape_p99_us"],
             path, "scrape_p50_us must be <= scrape_p99_us")
    _check_bool(fragment, "outcome_identical", path)
    _require(fragment["outcome_identical"], f"{path}.outcome_identical",
             "tuning outcome under scrape load differs from the "
             "unobserved outcome")


def check_crash_sweep(fragment, path):
    """The worker-isolation crash sweep of a headline document.

    Three hard gates, because these are correctness claims about the
    out-of-process sandbox: every isolated arm must complete (a crashed
    worker is respawned, never the run), every transient arm must produce
    the bit-identical outcome of a crash-free run with nothing quarantined
    (a survived crash leaves no trace), and at least one worker must
    actually have been respawned (the sweep injected real abort()s — zero
    respawns means the faults never fired and the gates were vacuous).
    """
    _require(isinstance(fragment, dict), path, "expected an object")
    _require(isinstance(fragment.get("arms"), list) and fragment["arms"],
             f"{path}.arms", "expected a non-empty array")
    for i, arm in enumerate(fragment["arms"]):
        apath = f"{path}.arms[{i}]"
        _check_string(arm, "benchmark", apath)
        _check_string(arm, "mode", apath)
        _require(arm["mode"] in ("transient", "sticky", "unisolated"),
                 f"{apath}.mode", f"unknown mode {arm['mode']!r}")
        _check_bool(arm, "isolated", apath)
        _check_bool(arm, "completed", apath)
        _check_bool(arm, "identical", apath)
        _check_number(arm, "respawns", apath, minimum=0)
        _check_number(arm, "quarantined", apath, minimum=0)
        if arm["isolated"]:
            _require(arm["completed"], f"{apath}.completed",
                     "an isolated arm did not complete (worker crash "
                     "escaped the sandbox)")
        if arm["mode"] == "transient":
            _require(arm["identical"], f"{apath}.identical",
                     "transient arm outcome differs from the crash-free "
                     "run (a survived crash left a trace)")
            _require(arm["quarantined"] == 0, f"{apath}.quarantined",
                     "transient arm quarantined a config (non-sticky "
                     "crashes must clear on retry)")
        if not arm["completed"]:
            _require(not arm["identical"], f"{apath}.identical",
                     "an arm that did not complete cannot match")
    summary = fragment.get("summary")
    _require(isinstance(summary, dict), f"{path}.summary",
             "expected an object")
    for key in ("isolated_completion_rate", "transient_identity_rate",
                "unisolated_completion_rate"):
        _check_number(summary, key, f"{path}.summary", minimum=0)
        _require(summary[key] <= 1.0, f"{path}.summary.{key}",
                 "expected a rate in [0, 1]")
    _require(summary["isolated_completion_rate"] == 1.0,
             f"{path}.summary.isolated_completion_rate",
             "isolated arms must always complete")
    _require(summary["transient_identity_rate"] == 1.0,
             f"{path}.summary.transient_identity_rate",
             "every transient arm must reproduce the crash-free outcome")
    _check_number(summary, "total_respawns", f"{path}.summary", minimum=1)


def check_dist_sweep(fragment, path):
    """The distributed-tuning sweep of a headline document.

    The hard gate is identity: every arm — any fleet size, and the kill
    arm where a worker drops its socket mid-run — must produce the
    bit-identical TuningOutcome of the threaded baseline. The kill arm
    must additionally show the liveness machinery actually fired: a
    worker was lost, at least one task requeued, and a replacement was
    absorbed mid-run (the bench kills the fleet's only worker, so the
    run provably cannot finish without the respawn) — otherwise the
    identity claim under churn was vacuous. Wall times are recorded for
    dashboards but not gated.
    """
    _require(isinstance(fragment, dict), path, "expected an object")
    _check_string(fragment, "benchmark", path)
    _check_number(fragment, "baseline_threads", path, minimum=1)
    _check_number(fragment, "baseline_wall_s", path, minimum=0)
    _require(isinstance(fragment.get("arms"), list) and fragment["arms"],
             f"{path}.arms", "expected a non-empty array")
    kill_arms = 0
    for i, arm in enumerate(fragment["arms"]):
        apath = f"{path}.arms[{i}]"
        _check_string(arm, "mode", apath)
        _require(arm["mode"] in ("fleet", "kill"), f"{apath}.mode",
                 f"unknown mode {arm['mode']!r}")
        _check_number(arm, "workers", apath, minimum=1)
        _check_number(arm, "wall_s", apath, minimum=0)
        _check_bool(arm, "completed", apath)
        _check_bool(arm, "outcome_identical", apath)
        _check_number(arm, "tasks_dispatched", apath, minimum=1)
        _check_number(arm, "tasks_requeued", apath, minimum=0)
        _check_number(arm, "workers_lost", apath, minimum=0)
        _check_number(arm, "workers_respawned", apath, minimum=0)
        _require(arm["completed"], f"{apath}.completed",
                 "a distributed arm did not complete (an agent exited "
                 "non-zero or the fleet never formed)")
        _require(arm["outcome_identical"], f"{apath}.outcome_identical",
                 "distributed outcome differs from the threaded baseline")
        if arm["mode"] == "kill":
            kill_arms += 1
            _require(arm["workers_lost"] >= 1, f"{apath}.workers_lost",
                     "the kill arm never lost a worker (the death hook "
                     "did not fire, so the churn gate is vacuous)")
            _require(arm["tasks_requeued"] >= 1, f"{apath}.tasks_requeued",
                     "the kill arm requeued nothing (the dead worker "
                     "held no work, so the churn gate is vacuous)")
            _require(arm["workers_respawned"] >= 1,
                     f"{apath}.workers_respawned",
                     "the kill arm absorbed no replacement worker "
                     "(the run should not even have finished)")
    _require(kill_arms >= 1, f"{path}.arms",
             "expected at least one kill arm")
    summary = fragment.get("summary")
    _require(isinstance(summary, dict), f"{path}.summary",
             "expected an object")
    _check_number(summary, "identity_rate", f"{path}.summary", minimum=0)
    _require(summary["identity_rate"] == 1.0,
             f"{path}.summary.identity_rate",
             "every distributed arm must reproduce the threaded outcome")
    _check_number(summary, "tasks_requeued", f"{path}.summary", minimum=1)
    _check_number(summary, "workers_respawned", f"{path}.summary",
                  minimum=1)


def check_dist_sweep_doc(doc, path):
    _require(doc.get("schema") == 1, path, "expected schema 1")
    _require("dist_sweep" in doc, path, "missing key 'dist_sweep'")
    check_dist_sweep(doc["dist_sweep"], f"{path}.dist_sweep")


def check_crash_sweep_doc(doc, path):
    _require(doc.get("schema") == 1, path, "expected schema 1")
    _require("crash_sweep" in doc, path, "missing key 'crash_sweep'")
    check_crash_sweep(doc["crash_sweep"], f"{path}.crash_sweep")


def check_engine_compare(doc, path):
    _require(doc.get("schema") == 1, path, "expected schema 1")
    _require("engine_speedup" in doc, path, "missing key 'engine_speedup'")
    check_engine_speedup(doc["engine_speedup"], f"{path}.engine_speedup")


def check_headline(doc, path):
    _require(doc.get("schema") == 1, path, "expected schema 1")
    _require(isinstance(doc.get("machines"), list) and doc["machines"],
             f"{path}.machines", "expected a non-empty array")
    for i, machine in enumerate(doc["machines"]):
        mpath = f"{path}.machines[{i}]"
        _check_string(machine, "machine", mpath)
        _require(isinstance(machine.get("runs"), list) and machine["runs"],
                 f"{mpath}.runs", "expected a non-empty array")
        for j, run in enumerate(machine["runs"]):
            rpath = f"{mpath}.runs[{j}]"
            _check_string(run, "benchmark", rpath)
            _check_string(run, "method", rpath)
            _require(run["method"] in ("CBR", "MBR", "RBR", "AVG", "WHL"),
                     f"{rpath}.method", f"unknown method {run['method']!r}")
            _check_number(run, "ref_improvement_pct", rpath)
            _check_number(run, "tuning_time_reduction_pct", rpath)
            _check_number(run, "configs_evaluated", rpath, minimum=1)
            _check_number(run, "invocations", rpath, minimum=1)
    headline = doc.get("headline")
    _require(isinstance(headline, dict), f"{path}.headline",
             "expected an object")
    for key in ("max_improvement_pct", "avg_improvement_pct",
                "max_time_reduction_pct", "avg_time_reduction_pct"):
        _check_number(headline, key, f"{path}.headline")
    if "engine_speedup" in doc:
        check_engine_speedup(doc["engine_speedup"], f"{path}.engine_speedup")
    # The parallel-search section joined the artifact later still, so it is
    # also optional for old files — but gated whenever present.
    if "search" in doc:
        check_search(doc["search"], f"{path}.search")
    # Ditto the live-telemetry section.
    if "telemetry" in doc:
        check_telemetry(doc["telemetry"], f"{path}.telemetry")
    # Ditto the worker-isolation crash sweep.
    if "crash_sweep" in doc:
        check_crash_sweep(doc["crash_sweep"], f"{path}.crash_sweep")
    # Ditto the distributed-tuning sweep.
    if "dist_sweep" in doc:
        check_dist_sweep(doc["dist_sweep"], f"{path}.dist_sweep")
    _require("metrics" in doc, path, "missing key 'metrics'")
    check_metrics(doc["metrics"], f"{path}.metrics")
    # cost_attribution joined the artifact after the metrics section, so
    # it is optional for old files — but validated whenever present.
    if "cost_attribution" in doc:
        check_cost_attribution(doc["cost_attribution"], doc["metrics"],
                               f"{path}.cost_attribution")


def check_fault_sweep(doc, path):
    _require(doc.get("schema") == 1, path, "expected schema 1")
    _require(isinstance(doc.get("sweep"), list) and doc["sweep"],
             f"{path}.sweep", "expected a non-empty array")
    for i, point in enumerate(doc["sweep"]):
        ppath = f"{path}.sweep[{i}]"
        _check_string(point, "benchmark", ppath)
        _check_number(point, "fault_prob", ppath, minimum=0)
        _require(point["fault_prob"] <= 1.0, f"{ppath}.fault_prob",
                 "expected a probability in [0, 1]")
        _check_number(point, "seed", ppath, minimum=0)
        _check_bool(point, "guarded", ppath)
        _check_bool(point, "completed", ppath)
        _check_bool(point, "matches_baseline", ppath)
        _check_number(point, "ref_improvement_pct", ppath)
        _check_number(point, "quarantined", ppath, minimum=0)
        _check_number(point, "invocations", ppath, minimum=0)
        if point["completed"]:
            _require(point["invocations"] >= 1, f"{ppath}.invocations",
                     "a completed run consumed at least one invocation")
        else:
            _require(not point["matches_baseline"],
                     f"{ppath}.matches_baseline",
                     "a run that did not complete cannot match")
    summary = doc.get("summary")
    _require(isinstance(summary, dict), f"{path}.summary",
             "expected an object")
    for key in ("guarded_completion_rate", "unguarded_completion_rate",
                "guarded_match_rate"):
        _check_number(summary, key, f"{path}.summary", minimum=0)
        _require(summary[key] <= 1.0, f"{path}.summary.{key}",
                 "expected a rate in [0, 1]")


CHECKERS = {
    "headline": check_headline,
    "engine_compare": check_engine_compare,
    "fault_sweep": check_fault_sweep,
    "crash_sweep": check_crash_sweep_doc,
    "dist_sweep": check_dist_sweep_doc,
}


def check_document(doc, path="$"):
    _require(isinstance(doc, dict), path, "top level must be an object")
    _check_all_finite(doc, path)
    _check_string(doc, "bench", path)
    checker = CHECKERS.get(doc["bench"])
    _require(checker is not None, f"{path}.bench",
             f"no schema registered for bench {doc['bench']!r}")
    checker(doc, path)


def check_file(filename):
    try:
        with open(filename, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{filename}: FAIL ({exc})")
        return False
    try:
        check_document(doc)
    except SchemaError as exc:
        print(f"{filename}: FAIL ({exc})")
        return False
    print(f"{filename}: OK")
    return True


# --- engine-speedup regression gate -----------------------------------------

def extract_speedups(doc, path):
    """Return {kernel name: speedup} from a validated document."""
    _require("engine_speedup" in doc, path, "missing key 'engine_speedup'")
    fragment = doc["engine_speedup"]
    return {k["name"]: k["speedup"] for k in fragment["kernels"]}


def compare_speedups(candidate, baseline, max_regress_pct):
    """Check candidate speedups against baseline; returns error strings.

    Only kernels present in both documents are compared (so adding a new
    kernel does not break the gate against an older baseline), but the two
    sets must overlap — disjoint kernel lists mean the baseline is stale.
    """
    floor = 1.0 - max_regress_pct / 100.0
    cand = extract_speedups(candidate, "candidate")
    base = extract_speedups(baseline, "baseline")
    shared = sorted(set(cand) & set(base))
    if not shared:
        return ["no kernels in common between candidate and baseline"]
    errors = []
    for name in shared:
        allowed = base[name] * floor
        if cand[name] < allowed:
            errors.append(
                f"kernel {name!r}: speedup {cand[name]:.3f}x regressed more "
                f"than {max_regress_pct}% below baseline {base[name]:.3f}x "
                f"(floor {allowed:.3f}x)")
    return errors


def check_file_against_baseline(filename, baseline_file, max_regress_pct):
    try:
        with open(baseline_file, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(filename, "r", encoding="utf-8") as handle:
            candidate = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{filename}: COMPARE FAIL ({exc})")
        return False
    try:
        errors = compare_speedups(candidate, baseline, max_regress_pct)
    except SchemaError as exc:
        print(f"{filename}: COMPARE FAIL ({exc})")
        return False
    if errors:
        for error in errors:
            print(f"{filename}: COMPARE FAIL ({error})")
        return False
    print(f"{filename}: COMPARE OK (vs {baseline_file}, "
          f"max regress {max_regress_pct}%)")
    return True


# --- metrics drift sentinel --------------------------------------------------

def _flatten_ledger(node, prefix=""):
    """{'all;sparc2;SWIM': cycles_total, ...} — wall is deliberately
    excluded (it varies run to run; cycles are deterministic)."""
    path = f"{prefix};{node['name']}" if prefix else node["name"]
    out = {path: node["cycles_total"]}
    for child in node.get("children", []):
        out.update(_flatten_ledger(child, path))
    return out


def _flatten_metrics(doc):
    """One {label: value} map covering everything the sentinel watches."""
    flat = {}
    metrics = doc.get("metrics", {})
    for name, value in metrics.get("counters", {}).items():
        flat[f"counters.{name}"] = value
    for name, value in metrics.get("gauges", {}).items():
        flat[f"gauges.{name}"] = value
    for name, hist in metrics.get("histograms", {}).items():
        flat[f"histograms.{name}.count"] = hist.get("count", 0)
        flat[f"histograms.{name}.sum"] = hist.get("sum", 0.0)
    if "cost_attribution" in doc:
        for path, cycles in _flatten_ledger(doc["cost_attribution"]).items():
            flat[f"ledger.{path}"] = cycles
    return flat


def compare_metrics(candidate, baseline, max_drift_pct, waived=()):
    """Diff two documents' metrics + ledger; returns error strings.

    The PEAK pipeline is a deterministic simulation, so counters, gauges,
    and ledger cycle totals should reproduce exactly; the tolerance only
    absorbs float accumulation order. Keys in the baseline but not the
    candidate fail (a silently vanishing metric is instrumentation rot);
    new keys in the candidate are fine (adding metrics must not break the
    gate against an older baseline). Wall-clock values are waived.
    """
    waived = tuple(waived) + ("wall",)
    cand = _flatten_metrics(candidate)
    base = _flatten_metrics(baseline)
    if not base:
        return ["baseline has no metrics to compare against"]
    errors = []
    for key in sorted(base):
        if any(w in key for w in waived):
            continue
        if key not in cand:
            errors.append(f"metric {key!r} present in baseline but missing "
                          f"from candidate")
            continue
        b, c = base[key], cand[key]
        allowed = abs(b) * max_drift_pct / 100.0
        if abs(c - b) > allowed:
            errors.append(
                f"metric {key!r} drifted out of band: {c!r} vs baseline "
                f"{b!r} (allowed +/-{max_drift_pct}%)")
    return errors


def check_file_metrics_against_baseline(filename, baseline_file,
                                        max_drift_pct, waived):
    try:
        with open(baseline_file, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(filename, "r", encoding="utf-8") as handle:
            candidate = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{filename}: METRICS FAIL ({exc})")
        return False
    errors = compare_metrics(candidate, baseline, max_drift_pct, waived)
    if errors:
        for error in errors:
            print(f"{filename}: METRICS FAIL ({error})")
        return False
    print(f"{filename}: METRICS OK (vs {baseline_file}, "
          f"max drift {max_drift_pct}%)")
    return True


# --- self-test fixtures -----------------------------------------------------

GOOD = {
    "bench": "headline",
    "schema": 1,
    "machines": [
        {
            "machine": "UltraSPARC-II",
            "runs": [
                {
                    "benchmark": "MGRID",
                    "method": "MBR",
                    "ref_improvement_pct": 12.5,
                    "tuning_time_reduction_pct": 80.0,
                    "configs_evaluated": 40,
                    "invocations": 12000,
                }
            ],
        }
    ],
    "headline": {
        "max_improvement_pct": 178.0,
        "avg_improvement_pct": 26.0,
        "max_time_reduction_pct": 96.0,
        "avg_time_reduction_pct": 80.0,
    },
    "metrics": {
        "counters": {"search.configs_evaluated": 40,
                     "rating.invocations": 12000},
        "gauges": {"rating.mbr_residual": 0.02,
                   "sim.cycles_timed": 900.0,
                   "profile.cycles": 100.0},
        "histograms": {
            "rating.window_samples": {
                "bounds": [10.0, 20.0],
                "counts": [3, 1, 0],
                "count": 4,
                "sum": 55.0,
                "p50": 8.3,
                "p90": 16.0,
                "p99": 19.0,
            }
        },
    },
    "cost_attribution": {
        "name": "all", "cycles_self": 0.0, "cycles_total": 1000.0,
        "wall_us_self": 0.0, "wall_us_total": 50.0, "children": [
            {"name": "UltraSPARC-II", "cycles_self": 0.0,
             "cycles_total": 1000.0, "wall_us_self": 0.0,
             "wall_us_total": 50.0, "children": [
                 {"name": "MGRID", "cycles_self": 0.0,
                  "cycles_total": 1000.0, "wall_us_self": 0.0,
                  "wall_us_total": 50.0, "children": [
                      {"name": "resid", "cycles_self": 0.0,
                       "cycles_total": 1000.0, "wall_us_self": 0.0,
                       "wall_us_total": 50.0, "children": [
                           {"name": "profile", "cycles_self": 100.0,
                            "cycles_total": 100.0, "wall_us_self": 10.0,
                            "wall_us_total": 10.0, "children": []},
                           {"name": "MBR", "cycles_self": 0.0,
                            "cycles_total": 900.0, "wall_us_self": 30.0,
                            "wall_us_total": 40.0, "children": [
                                {"name": "timed", "cycles_self": 900.0,
                                 "cycles_total": 900.0, "wall_us_self": 10.0,
                                 "wall_us_total": 10.0, "children": []},
                            ]},
                       ]},
                  ]},
             ]},
        ],
    },
}

GOOD_SEARCH = {
    "benchmark": "SWIM",
    "timed_benchmark": "EQUAKE",
    "timed_machine": "p4",
    "timed_tunes": 5,
    "threads": 4,
    "hardware_concurrency": 8,
    "serial_wall_s": 1.2,
    "parallel_wall_s": 0.4,
    "search_speedup": 3.0,
    "outcome_identical": True,
    "cache": {
        "cold_stores": 112,
        "warm_hits": 112,
        "warm_misses": 0,
        "warm_hit_rate": 1.0,
        "warm_outcome_identical": True,
    },
}

GOOD_TELEMETRY = {
    "scrapes": 240,
    "errors": 0,
    "scrape_p50_us": 180.0,
    "scrape_p99_us": 2400.0,
    "outcome_identical": True,
}

GOOD_FAULT = {
    "bench": "fault_sweep",
    "schema": 1,
    "sweep": [
        {
            "benchmark": "SWIM",
            "fault_prob": 0.05,
            "seed": 1,
            "guarded": True,
            "completed": True,
            "matches_baseline": True,
            "ref_improvement_pct": 5.3,
            "quarantined": 4,
            "invocations": 1452,
        },
        {
            "benchmark": "SWIM",
            "fault_prob": 0.05,
            "seed": 1,
            "guarded": False,
            "completed": False,
            "matches_baseline": False,
            "ref_improvement_pct": 0.0,
            "quarantined": 0,
            "invocations": 0,
        },
    ],
    "summary": {
        "guarded_completion_rate": 1.0,
        "unguarded_completion_rate": 0.0,
        "guarded_match_rate": 1.0,
    },
}

GOOD_CRASH = {
    "arms": [
        {"benchmark": "SWIM", "mode": "transient", "isolated": True,
         "completed": True, "identical": True, "respawns": 1,
         "quarantined": 0},
        {"benchmark": "SWIM", "mode": "sticky", "isolated": True,
         "completed": True, "identical": False, "respawns": 44,
         "quarantined": 15},
        {"benchmark": "SWIM", "mode": "unisolated", "isolated": False,
         "completed": False, "identical": False, "respawns": 0,
         "quarantined": 0},
    ],
    "summary": {
        "isolated_completion_rate": 1.0,
        "transient_identity_rate": 1.0,
        "unisolated_completion_rate": 0.0,
        "total_respawns": 45,
    },
}

GOOD_DIST = {
    "benchmark": "SWIM",
    "baseline_threads": 2,
    "baseline_wall_s": 0.041,
    "arms": [
        {"mode": "fleet", "workers": 1, "wall_s": 0.062, "completed": True,
         "outcome_identical": True, "tasks_dispatched": 38,
         "tasks_requeued": 0, "workers_lost": 0, "workers_respawned": 0},
        {"mode": "fleet", "workers": 2, "wall_s": 0.055, "completed": True,
         "outcome_identical": True, "tasks_dispatched": 38,
         "tasks_requeued": 0, "workers_lost": 0, "workers_respawned": 0},
        {"mode": "kill", "workers": 1, "wall_s": 0.058, "completed": True,
         "outcome_identical": True, "tasks_dispatched": 40,
         "tasks_requeued": 2, "workers_lost": 1, "workers_respawned": 1},
    ],
    "summary": {
        "identity_rate": 1.0,
        "tasks_requeued": 2,
        "workers_respawned": 1,
    },
}

GOOD_ENGINE = {
    "bench": "engine_compare",
    "schema": 1,
    "engine_speedup": {
        "kernels": [
            {"name": "branchy_small", "interp_ns": 90000.0,
             "vm_ns": 30000.0, "speedup": 3.0},
            {"name": "array_sweep", "interp_ns": 80000.0,
             "vm_ns": 40000.0, "speedup": 2.0},
        ],
        "geomean": 2.449,
    },
}


def _mutate(doc, fn):
    clone = json.loads(json.dumps(doc))
    fn(clone)
    return clone


def self_test():
    failures = []
    cases = [0]

    def expect(doc, valid, label):
        cases[0] += 1
        try:
            check_document(doc)
            ok = True
        except SchemaError:
            ok = False
        if ok != valid:
            failures.append(label)

    expect(GOOD, True, "good document rejected")
    expect(_mutate(GOOD, lambda d: d.pop("headline")), False,
           "missing headline accepted")
    expect(_mutate(GOOD, lambda d: d.update(schema=2)), False,
           "wrong schema accepted")
    expect(
        _mutate(GOOD, lambda d: d["machines"][0]["runs"][0].update(
            method="XYZ")), False, "unknown method accepted")
    expect(
        _mutate(GOOD, lambda d: d["machines"][0]["runs"][0].update(
            configs_evaluated=0)), False, "zero configs_evaluated accepted")
    expect(
        _mutate(
            GOOD, lambda d: d["metrics"]["histograms"][
                "rating.window_samples"].update(counts=[3, 1])), False,
        "short histogram counts accepted")
    expect(
        _mutate(
            GOOD, lambda d: d["metrics"]["histograms"][
                "rating.window_samples"].update(count=99)), False,
        "inconsistent histogram count accepted")
    expect(_mutate(GOOD, lambda d: d["metrics"].pop("counters")), False,
           "missing counters accepted")
    expect(_mutate(GOOD, lambda d: d["metrics"]["histograms"][
        "rating.window_samples"].update(p90=5.0)), False,
        "out-of-order percentiles accepted")
    expect(_mutate(GOOD, lambda d: d.pop("cost_attribution")), True,
           "headline without cost_attribution rejected")

    # cost_attribution: structure, conservation, gauge reconciliation.
    def ledger_method(d):
        return (d["cost_attribution"]["children"][0]["children"][0]
                ["children"][0]["children"][1])

    expect(_mutate(GOOD, lambda d: d["cost_attribution"].update(name="x")),
           False, "ledger root not named 'all' accepted")
    expect(_mutate(GOOD, lambda d: ledger_method(d).update(
        cycles_total=500.0)), False, "conservation violation accepted")
    expect(_mutate(GOOD, lambda d: ledger_method(d)["children"][0].update(
        cycles_self=float("nan"), cycles_total=float("nan"))), False,
        "NaN in cost_attribution accepted")
    expect(_mutate(GOOD, lambda d: d["metrics"]["gauges"].update(
        **{"sim.cycles_timed": 500.0})), False,
        "ledger/gauge cycle mismatch accepted")

    # The parallel-search section: optional, but hard-gated when present.
    def with_search(fn=None):
        def apply(d):
            d["search"] = json.loads(json.dumps(GOOD_SEARCH))
            if fn is not None:
                fn(d["search"])
        return _mutate(GOOD, apply)

    expect(with_search(), True, "headline with good search section rejected")
    expect(with_search(lambda s: s.update(outcome_identical=False)), False,
           "non-identical parallel outcome accepted")
    expect(with_search(lambda s: s["cache"].update(
        warm_hit_rate=0.5)), False, "50% warm hit rate accepted")
    expect(with_search(lambda s: s["cache"].update(
        warm_outcome_identical=False)), False,
        "non-identical warm cache outcome accepted")
    expect(with_search(lambda s: s.update(search_speedup=1.1)), False,
           "1.1x speedup on an 8-thread machine accepted")
    expect(with_search(lambda s: s.update(
        hardware_concurrency=1, search_speedup=1.0)), True,
        "speedup gate applied on a 1-thread machine")
    expect(with_search(lambda s: s.pop("cache")), False,
           "search section without cache stats accepted")
    expect(with_search(lambda s: [s.pop(key) for key in (
        "timed_benchmark", "timed_machine")]), False,
           "search section that does not name its timed case accepted")
    expect(with_search(lambda s: s.pop("timed_tunes")), False,
           "search section that does not count its timed tunes accepted")
    expect(with_search(lambda s: s["cache"].update(cold_stores=0)), False,
           "cold run that stored nothing accepted")

    # The live-telemetry section: optional, but hard-gated when present.
    def with_telemetry(fn=None):
        def apply(d):
            d["telemetry"] = json.loads(json.dumps(GOOD_TELEMETRY))
            if fn is not None:
                fn(d["telemetry"])
        return _mutate(GOOD, apply)

    expect(with_telemetry(), True,
           "headline with good telemetry section rejected")
    expect(with_telemetry(lambda t: t.update(outcome_identical=False)),
           False, "perturbed outcome under scrape load accepted")
    expect(with_telemetry(lambda t: t.update(errors=3)), False,
           "failed scrapes accepted")
    expect(with_telemetry(lambda t: t.update(scrapes=0)), False,
           "telemetry section with zero scrapes accepted")
    expect(with_telemetry(lambda t: t.update(
        scrape_p50_us=5000.0, scrape_p99_us=100.0)), False,
        "p50 > p99 accepted")
    expect(with_telemetry(lambda t: t.pop("scrape_p99_us")), False,
           "missing scrape_p99_us accepted")

    # The worker-isolation crash sweep: optional in a headline, gated when
    # present, and also a standalone document schema.
    def with_crash(fn=None):
        def apply(d):
            d["crash_sweep"] = json.loads(json.dumps(GOOD_CRASH))
            if fn is not None:
                fn(d["crash_sweep"])
        return _mutate(GOOD, apply)

    expect(with_crash(), True,
           "headline with good crash_sweep section rejected")
    expect(with_crash(lambda c: c.update(arms=[])), False,
           "empty crash_sweep arms accepted")
    expect(with_crash(lambda c: c["arms"][0].update(mode="weird")), False,
           "unknown crash arm mode accepted")
    expect(with_crash(lambda c: c["arms"][0].update(
        completed=False, identical=False)), False,
        "isolated arm that did not complete accepted")
    expect(with_crash(lambda c: c["arms"][0].update(identical=False)),
           False, "non-identical transient arm accepted")
    expect(with_crash(lambda c: c["arms"][0].update(quarantined=2)), False,
           "transient arm with quarantined configs accepted")
    expect(with_crash(lambda c: c["arms"][2].update(identical=True)),
           False, "incomplete arm claiming identity accepted")
    expect(with_crash(lambda c: c["summary"].update(
        transient_identity_rate=1.2)), False, "crash rate > 1 accepted")
    expect(with_crash(lambda c: c["summary"].update(total_respawns=0)),
           False, "crash sweep with zero respawns accepted")
    expect(with_crash(lambda c: c.pop("summary")), False,
           "missing crash_sweep summary accepted")
    expect({"bench": "crash_sweep", "schema": 1, "crash_sweep": GOOD_CRASH},
           True, "good standalone crash_sweep document rejected")
    expect({"bench": "crash_sweep", "schema": 1}, False,
           "standalone crash_sweep document without fragment accepted")

    # The distributed-tuning sweep: optional in a headline, gated when
    # present, and also a standalone document schema.
    def with_dist(fn=None):
        def apply(d):
            d["dist_sweep"] = json.loads(json.dumps(GOOD_DIST))
            if fn is not None:
                fn(d["dist_sweep"])
        return _mutate(GOOD, apply)

    expect(with_dist(), True,
           "headline with good dist_sweep section rejected")
    expect(with_dist(lambda c: c.update(arms=[])), False,
           "empty dist_sweep arms accepted")
    expect(with_dist(lambda c: c["arms"][0].update(mode="weird")), False,
           "unknown dist arm mode accepted")
    expect(with_dist(lambda c: c["arms"][0].update(
        outcome_identical=False)), False,
        "non-identical distributed outcome accepted")
    expect(with_dist(lambda c: c["arms"][0].update(completed=False)),
           False, "distributed arm that did not complete accepted")
    expect(with_dist(lambda c: c["arms"][0].update(tasks_dispatched=0)),
           False, "distributed arm that dispatched nothing accepted")
    expect(with_dist(lambda c: c["arms"][2].update(workers_lost=0)),
           False, "kill arm that lost no worker accepted")
    expect(with_dist(lambda c: c["arms"][2].update(tasks_requeued=0)),
           False, "kill arm that requeued nothing accepted")
    expect(with_dist(lambda c: c["arms"][2].update(workers_respawned=0)),
           False, "kill arm that absorbed no replacement accepted")
    expect(with_dist(lambda c: c["arms"][2].pop("workers_respawned")),
           False, "kill arm without a respawn count accepted")
    expect(with_dist(lambda c: c["arms"].pop(2)), False,
           "dist_sweep without a kill arm accepted")
    expect(with_dist(lambda c: c["summary"].update(identity_rate=0.75)),
           False, "dist identity rate below 1 accepted")
    expect(with_dist(lambda c: c.pop("summary")), False,
           "missing dist_sweep summary accepted")
    expect({"bench": "dist_sweep", "schema": 1, "dist_sweep": GOOD_DIST},
           True, "good standalone dist_sweep document rejected")
    expect({"bench": "dist_sweep", "schema": 1}, False,
           "standalone dist_sweep document without fragment accepted")

    expect(GOOD_ENGINE, True, "good engine_compare document rejected")
    expect(_mutate(GOOD_ENGINE,
                   lambda d: d["engine_speedup"].update(kernels=[])), False,
           "empty kernel list accepted")
    expect(
        _mutate(GOOD_ENGINE, lambda d: d["engine_speedup"]["kernels"][0]
                .update(vm_ns=0)), False, "zero vm_ns accepted")
    expect(_mutate(GOOD_ENGINE,
                   lambda d: d["engine_speedup"].pop("geomean")), False,
           "missing geomean accepted")
    expect(_mutate(GOOD, lambda d: d.update(
        engine_speedup={"kernels": [], "geomean": 1.0})), False,
        "headline with malformed engine_speedup accepted")
    expect(_mutate(GOOD, lambda d: d.update(
        engine_speedup=GOOD_ENGINE["engine_speedup"])), True,
        "headline with engine_speedup rejected")

    expect(GOOD_FAULT, True, "good fault_sweep document rejected")
    expect(_mutate(GOOD_FAULT, lambda d: d.update(sweep=[])), False,
           "empty sweep accepted")
    expect(_mutate(GOOD_FAULT, lambda d: d["sweep"][0].update(
        fault_prob=1.5)), False, "fault_prob > 1 accepted")
    expect(_mutate(GOOD_FAULT, lambda d: d["sweep"][0].update(
        guarded="yes")), False, "non-boolean guarded accepted")
    expect(_mutate(GOOD_FAULT, lambda d: d["sweep"][1].update(
        matches_baseline=True)), False,
        "incomplete run claiming a baseline match accepted")
    expect(_mutate(GOOD_FAULT, lambda d: d["summary"].update(
        guarded_match_rate=1.2)), False, "rate > 1 accepted")
    expect(_mutate(GOOD_FAULT, lambda d: d.pop("summary")), False,
           "missing fault_sweep summary accepted")

    # NaN/Inf rejection applies to every schema, at any depth.
    expect(_mutate(GOOD_FAULT, lambda d: d["sweep"][0].update(
        ref_improvement_pct=float("nan"))), False,
        "NaN in fault_sweep accepted")
    expect(_mutate(GOOD, lambda d: d["headline"].update(
        avg_improvement_pct=float("inf"))), False,
        "Infinity in headline accepted")
    expect(_mutate(GOOD, lambda d: d["metrics"]["gauges"].update(
        bad=float("nan"))), False, "NaN metric gauge accepted")

    def expect_compare(cand, base, pct, ok_expected, label):
        cases[0] += 1
        errors = compare_speedups(cand, base, pct)
        if bool(not errors) != ok_expected:
            failures.append(label)

    regressed = _mutate(GOOD_ENGINE, lambda d: d["engine_speedup"][
        "kernels"][0].update(speedup=1.0))
    expect_compare(GOOD_ENGINE, GOOD_ENGINE, 50, True,
                   "identical speedups failed the gate")
    expect_compare(regressed, GOOD_ENGINE, 50, False,
                   "3.0x -> 1.0x regression passed a 50% gate")
    expect_compare(regressed, GOOD_ENGINE, 70, True,
                   "3.0x -> 1.0x failed a 70% gate (floor 0.9x)")
    disjoint = _mutate(GOOD_ENGINE, lambda d: d["engine_speedup"][
        "kernels"][0].update(name="other"))
    expect_compare(
        _mutate(disjoint, lambda d: d["engine_speedup"]["kernels"].pop()),
        _mutate(GOOD_ENGINE,
                lambda d: d["engine_speedup"]["kernels"].pop(0)),
        50, False, "disjoint kernel sets passed the gate")

    # The metrics-drift sentinel.
    def expect_drift(cand, base, pct, ok_expected, label):
        cases[0] += 1
        errors = compare_metrics(cand, base, pct)
        if bool(not errors) != ok_expected:
            failures.append(label)

    expect_drift(GOOD, GOOD, 10, True, "identical metrics failed the gate")
    expect_drift(_mutate(GOOD, lambda d: d["metrics"]["counters"].update(
        **{"rating.invocations": 18000})), GOOD, 10, False,
        "50% drift in rating.invocations passed a 10% gate")
    expect_drift(_mutate(GOOD, lambda d: d["metrics"]["counters"].pop(
        "rating.invocations")), GOOD, 10, False,
        "metric missing from candidate passed the gate")
    expect_drift(_mutate(GOOD, lambda d: d["metrics"]["counters"].update(
        extra=1)), GOOD, 10, True,
        "new metric in candidate failed the gate")
    expect_drift(_mutate(GOOD, lambda d: d["cost_attribution"].update(
        wall_us_self=99999.0, wall_us_total=99999.0 + 50.0)), GOOD, 10,
        True, "wall drift was not waived")
    deep_drift = _mutate(GOOD, lambda d: ledger_method(d)["children"][0]
                         .update(cycles_self=300.0, cycles_total=300.0))
    expect_drift(deep_drift, GOOD, 10, False,
                 "ledger cycle drift passed the gate")

    if failures:
        for failure in failures:
            print(f"self-test: FAIL ({failure})")
        return False
    print(f"self-test: OK ({cases[0]} cases)")
    return True


def main(argv):
    if "--self-test" in argv:
        return 0 if self_test() else 1
    files = []
    baseline = None
    metrics_baseline = None
    max_regress_pct = 50.0
    max_metric_drift_pct = 10.0
    waived = []

    def value_of(flag, index):
        if index + 1 >= len(argv):
            print(f"{flag} requires an argument")
            return None
        return argv[index + 1]

    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--compare":
            baseline = value_of(arg, i)
            if baseline is None:
                return 1
            i += 2
        elif arg == "--compare-metrics":
            metrics_baseline = value_of(arg, i)
            if metrics_baseline is None:
                return 1
            i += 2
        elif arg == "--waive-metric":
            waiver = value_of(arg, i)
            if waiver is None:
                return 1
            waived.append(waiver)
            i += 2
        elif arg in ("--max-regress-pct", "--max-metric-drift-pct"):
            raw = value_of(arg, i)
            if raw is None:
                return 1
            try:
                pct = float(raw)
            except ValueError:
                print(f"{arg}: not a number: {raw!r}")
                return 1
            if arg == "--max-regress-pct":
                max_regress_pct = pct
            else:
                max_metric_drift_pct = pct
            i += 2
        elif arg.startswith("--"):
            print(f"unknown option {arg!r}")
            return 1
        else:
            files.append(arg)
            i += 1
    if not files:
        print(__doc__.strip())
        return 1
    ok = all([check_file(f) for f in files])
    if baseline is not None:
        ok = all([check_file_against_baseline(f, baseline, max_regress_pct)
                  for f in files]) and ok
    if metrics_baseline is not None:
        ok = all([check_file_metrics_against_baseline(
            f, metrics_baseline, max_metric_drift_pct, waived)
            for f in files]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
