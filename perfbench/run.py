#!/usr/bin/env python3
"""The repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library, the daemon and the measuring driver from the
checkout's sources, runs the named workload for about S seconds,
checks every output against the checked-in oracles and prints, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (measured with tracing off); with --trace 1 a second,
traced pass follows and the metrics are the per-layer ones.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import benchlib  # noqa: E402

RESULTS = os.path.join(ROOT, "results")
# paper-cold runs the pipeline at a reduced Budget so that one run
# holds several cold units; its oracle was made by the repository's
# own pipeline at that Budget (see README.md). crossconfig-matrix runs
# at the default Budget against results/.
PAPER_BUDGET = {"XPS_EVAL_INSTRS": "20000", "XPS_SA_ITERS": "192",
                "XPS_FINAL_INSTRS": "50000"}
ORACLE = {"paper-cold": os.path.join(HERE, "oracle"),
          "crossconfig-matrix": RESULTS, "serve-mixed": RESULTS}
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "xps-perfbench")
DAEMON = os.path.join(BUILD, "xps", "serve", "xps-serve")
WORKLOADS = ("paper-cold", "crossconfig-matrix", "serve-mixed")
SETUP_PROBES = 64     # pipeline set-up samples, half before the units
# serve-mixed sends a fixed number of requests per --seconds: the rate
# at which a 4-vCPU x86-64 virtual machine served the mix, so that a
# run lasts about --seconds there and its wall_s is the time to serve
# that fixed work.
SERVE_REQUESTS_PER_S = 8
COVERAGE_MIN_PCT = 95.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "frac", "geomean_own_ipt": "instr/ns",
    "requests_per_s": "1/s", "request_p50_ms": "ms",
    "request_tail_ms": "ms",
}
PER_LAYER_UNITS = {
    "workload.trace_build_s": "s", "workload.trace_builds": "count",
    "sim.runs": "count", "sim.busy_s": "s", "sim.ns_per_instr": "ns",
    "explore.anneal_s": "s", "explore.adopt_s": "s",
    "explore.final_s": "s", "explore.evaluations": "count",
    "explore.accept_ratio": "frac", "explore.checkpoint_writes": "count",
    "explore.checkpoint_write_s": "s", "comm.matrix_s": "s",
    "comm.matrix_cells": "count", "comm.analyses_s": "s",
    "util.write_s": "s", "serve.queue_wait_p50_ms": "ms",
    "serve.journal_write_p50_ms": "ms", "serve.job_p50_ms": "ms",
    "serve.worker_sim_p50_ms": "ms", "serve.publish_p50_ms": "ms",
    "serve.store_hit_ratio": "frac", "serve.coalesced": "count",
    "serve.jobs_dispatched": "count", "obs.trace_overhead_pct": "%",
    "obs.layer_coverage_pct": "%", "obs.uncovered_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def ncpu():
    return len(os.sched_getaffinity(0))


def threads():
    """Worker threads for the pipelines: half the CPUs. On a 4-vCPU
    virtual machine, 4 spinning threads took 0.68-1.78 s for a job that
    2 threads finished in 0.70-0.79 s: the host does not keep every
    vCPU running, and the annealer's round barrier waits on the
    slowest thread."""
    return max(1, ncpu() // 2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ beside perfbench/: not a checkout of "
                         "the repository")
    for path in set(ORACLE.values()):
        for name in ("table4_configs.csv", "table5_matrix.csv"):
            if not os.path.isfile(os.path.join(path, name)):
                raise BenchError("missing oracle %s/%s" % (path, name))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(ncpu())],
                   stdout=sys.stderr, check=True)


def driver_env(workload, extra=None):
    """No XPS_* knob reaches the library but the thread count and the
    workload's Budget, the one its oracle was made with."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("XPS_")}
    env["XPS_THREADS"] = str(threads())
    if workload == "paper-cold":
        env.update(PAPER_BUDGET)
    env.update(extra or {})
    return env


def stop_group(proc):
    """Kill whatever is left of a driver's process group (the driver,
    or a daemon or worker of a driver that failed) and wait until it
    is gone."""
    deadline = time.monotonic() + 10
    sig = signal.SIGKILL
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        sig = 0
        proc.poll()
        time.sleep(0.01)


def run_driver(args, env, timeout=170):
    """Run the driver in its own process group; every process it
    starts is stopped by the time this returns."""
    proc = subprocess.Popen([DRIVER] + args, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        stop_group(proc)
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise BenchError("xps-perfbench %s exited %d"
                         % (args[0], proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


class Tally:
    """Operations attempted and failed: outputs that disagree with an
    oracle, failed requests and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            log("%d of %d %s failed" % (failed, attempted, what))


# --- pipelines -------------------------------------------------------

def pipeline_setup(workload, count):
    """Samples of process start until the inputs are loaded and
    validated."""
    samples = []
    for i in range(count):
        t0 = time.monotonic()
        out = run_driver(["pipeline", "--workload", workload,
                          "--results", ORACLE[workload],
                          "--setup-only", "1"], driver_env(workload))
        samples.append(out["ready_mono_s"] - t0)
    return samples


def pipeline_units(workload, seconds, rundir, tally, traced):
    """Cold units, each in a fresh process: at least one, and more
    while the next one is expected to end within `seconds`."""
    units, spent = [], 0.0
    while not units or spent + spent / len(units) <= seconds:
        udir = os.path.join(rundir, "%s%d" % ("t" if traced else "u",
                                              len(units)))
        extra = {"XPS_RESULTS_DIR": udir}
        if traced:
            extra.update({
                "XPS_TRACE_JSON": os.path.join(udir, "trace.json"),
                "XPS_METRICS_JSON": os.path.join(udir, "metrics.json")})
        oracle = ORACLE[workload]
        out = run_driver(["pipeline", "--workload", workload,
                          "--results", oracle],
                         driver_env(workload, extra))
        if workload == "paper-cold":
            tally.add(*benchlib.compare_csv(
                os.path.join(oracle, "table4_configs.csv"),
                os.path.join(udir, "table4_configs.csv")), "Table-4 cells")
        tally.add(*benchlib.compare_csv(
            os.path.join(oracle, "table5_matrix.csv"),
            os.path.join(udir, "table5_matrix.csv")), "Table-5 cells")
        tally.add(out["analyses"], out["analyses_mismatches"],
                  "Table-6 / surrogate analyses")
        out["dir"] = udir
        units.append(out)
        spent += out["wall_s"]
    return units


def timing_metrics(latencies_s, done, window_s):
    """Nearest-rank p50 and tail, so the tail is never below the p50."""
    p, beyond = benchlib.tail_percentile(len(latencies_s))
    return {
        "requests_per_s": done / window_s,
        "request_p50_ms": benchlib.percentile(latencies_s, 50) * 1e3,
        "request_tail_ms": benchlib.percentile(latencies_s, p) * 1e3,
    }, {"tail_percentile": p, "samples": len(latencies_s),
        "samples_beyond_tail": beyond}


def pipeline_end_to_end(units, setup_s):
    """The request_* figures of a pipeline are its units' wall times
    again: one unit is one request."""
    walls = [u["wall_s"] for u in units]
    metrics, detail = timing_metrics(walls, len(units), sum(walls))
    metrics.update({
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(u["cpu_s"] for u in units),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "geomean_own_ipt": units[0]["geomean_own_ipt"],
    })
    detail["units"] = len(units)
    return metrics, detail


def pipeline_layers(traced, untraced, tally):
    """Per-layer metrics: medians over the traced units."""
    rows = []
    for u in traced:
        with open(os.path.join(u["dir"], "trace.json")) as f:
            events = json.load(f)["traceEvents"]
        with open(os.path.join(u["dir"], "metrics.json")) as f:
            counters = json.load(f)["counters"]
        layers, wall, uncovered = benchlib.partition_unit(events)
        spans = benchlib.span_totals(events)
        accepts = counters.get("anneal.accepts", 0)
        row = dict(layers)
        row.update({
            "workload.trace_builds": counters.get("trace_cache.misses", 0)
            + counters.get("trace_cache.grows", 0),
            "sim.runs": spans["sim_runs"],
            "sim.busy_s": spans["sim_busy_s"],
            "sim.ns_per_instr": benchlib.ratio(spans["sim_busy_s"] * 1e9,
                                               spans["sim_instrs"]),
            "explore.evaluations": u["explore_evaluations"],
            "explore.accept_ratio": benchlib.ratio(
                accepts, accepts + counters.get("anneal.rejects", 0)),
            "explore.checkpoint_writes": counters.get("checkpoint.writes", 0),
            "explore.checkpoint_write_s": spans["checkpoint_write_s"],
            "comm.matrix_cells": counters.get("perf_matrix.cells_computed", 0),
            "obs.layer_coverage_pct": 100.0 * (1 - uncovered / wall),
            "obs.uncovered_s": uncovered,
        })
        rows.append(row)
        tally.add(1, row["obs.layer_coverage_pct"] < COVERAGE_MIN_PCT,
                  "traced units with layer coverage under %.0f%%"
                  % COVERAGE_MIN_PCT)
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["obs.trace_overhead_pct"] = 100.0 * (
        statistics.median(u["wall_s"] for u in traced)
        / statistics.median(u["wall_s"] for u in untraced) - 1)
    return metrics


# --- serve-mixed -----------------------------------------------------

def serve_pass(seed, seconds, rundir, tally, traced):
    oracle = ORACLE["serve-mixed"]
    table4 = benchlib.load_table4(os.path.join(oracle, "table4_configs.csv"))
    table5 = benchlib.load_table5(os.path.join(oracle, "table5_matrix.csv"))
    reqs = benchlib.generate_requests(
        seed, max(1, round(SERVE_REQUESTS_PER_S * seconds)), table4)
    os.makedirs(rundir, exist_ok=True)
    script = os.path.join(rundir, "requests.ndjson")
    with open(script, "w") as f:
        for i, r in enumerate(reqs):
            f.write(benchlib.request_line(i, r, table4) + "\n")
    records = os.path.join(rundir, "records.jsonl")
    args = ["serve", "--daemon", DAEMON, "--dir", rundir,
            "--requests", script, "--records", records]
    if traced:
        args += ["--metrics", os.path.join(rundir, "metrics.json"),
                 "--daemon-env",
                 "XPS_TRACE_JSON=" + os.path.join(rundir, "trace.json"),
                 "--daemon-env",
                 "XPS_METRICS_JSON=" + os.path.join(rundir, "dump.json")]
    out = run_driver(args, driver_env("serve-mixed"), timeout=seconds + 150)
    tally.add(out["connects"], out["connect_failures"], "client connects")
    tally.add(len(reqs) - out["sent"], len(reqs) - out["sent"],
              "requests never sent")
    with open(records) as f:
        recs = [json.loads(line) for line in f]
    if not recs:
        raise BenchError("no client could connect to the daemon")
    own, latencies, done = {}, [], 0
    for rec in recs:
        req = reqs[rec["i"]]
        _, bad = benchlib.check_response(req, rec["response"], table5)
        failed = not rec["ok"] or bad > 0
        tally.add(1, failed, "serve requests")
        latencies.append(rec["latency_s"])
        done += not failed
        if req["op"] == "matrix" and not failed:
            own.update(benchlib.own_cells(req, rec["response"]))
    tally.add(1, out["daemon_exit"] != 99, "daemon drains (exit 99)")
    metrics, detail = timing_metrics(latencies, done, out["window_s"])
    metrics.update({
        "setup_s": benchlib.setup_value(out["setup_s"]),
        "wall_s": out["window_s"],
        "cpu_s": out["cpu_s"],
        "peak_rss_mb": out["peak_rss_mb"],
        "geomean_own_ipt": statistics.geometric_mean(own.values())
        if len(own) == len(table4) else 0.0,
    })
    detail["traffic"] = benchlib.traffic_shares(reqs[:len(recs)], table4)
    detail["clients"] = out["clients"]
    return metrics, detail


def serve_layers(rundir, traced_wall_s, untraced_wall_s):
    with open(os.path.join(rundir, "metrics.json")) as f:
        snap = json.load(f)
    counters, hist = snap["counters"], snap.get("histograms_ns", {})

    def p50_ms(name):
        return hist.get(name, {}).get("p50", 0) * 1e-6

    sim = hist.get("sim.run", {})
    hits = counters.get("serve.cache_hits", 0)
    metrics = {
        "workload.trace_builds": counters.get("trace_cache.misses", 0)
        + counters.get("trace_cache.grows", 0),
        "sim.runs": sim.get("count", 0),
        "sim.busy_s": sim.get("count", 0) * sim.get("mean", 0.0) * 1e-9,
        "sim.ns_per_instr": sim.get("mean", 0.0) / benchlib.INSTRS,
        "comm.matrix_cells": counters.get("perf_matrix.cells_computed", 0),
        "serve.queue_wait_p50_ms": p50_ms("serve.queue_wait"),
        "serve.journal_write_p50_ms": p50_ms("serve.journal_write"),
        "serve.job_p50_ms": p50_ms("serve.job"),
        "serve.worker_sim_p50_ms": p50_ms("sim.run"),
        "serve.publish_p50_ms": p50_ms("serve.publish"),
        "serve.store_hit_ratio": benchlib.ratio(
            hits, hits + counters.get("serve.cache_misses", 0)),
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.jobs_dispatched": counters.get("serve.dispatched", 0),
        "obs.trace_overhead_pct": 100.0 * (traced_wall_s / untraced_wall_s
                                           - 1),
    }
    trace = os.path.join(rundir, "trace.json")
    if os.path.isfile(trace):
        with open(trace) as f:
            spans = benchlib.span_totals(json.load(f)["traceEvents"])
        metrics["workload.trace_build_s"] = spans["trace_busy_s"]
    return metrics


# --- main ------------------------------------------------------------

def run(workload, seed, seconds, trace, rundir):
    tally = Tally()
    if workload == "serve-mixed":
        e2e, detail = serve_pass(seed, seconds,
                                 os.path.join(rundir, "plain"), tally, False)
        if trace:
            traced, _ = serve_pass(seed, seconds,
                                   os.path.join(rundir, "traced"), tally,
                                   True)
            layers = serve_layers(os.path.join(rundir, "traced"),
                                  traced["wall_s"], e2e["wall_s"])
    else:
        setup = pipeline_setup(workload, SETUP_PROBES // 2)
        units = pipeline_units(workload, seconds, rundir, tally, False)
        setup += pipeline_setup(workload, SETUP_PROBES - SETUP_PROBES // 2)
        e2e, detail = pipeline_end_to_end(units, benchlib.setup_value(setup))
        if trace:
            traced = pipeline_units(workload, seconds, rundir, tally, True)
            layers = pipeline_layers(traced, units, tally)
    e2e["ok_frac"] = 1.0 - tally.failed / tally.attempted
    detail.update({"workload": workload, "seed": seed,
                   "attempted": tally.attempted, "failed": tally.failed})
    if trace:
        # A layer the workload does not run reports 0.
        chosen = {k: (layers.get(k, 0.0), u)
                  for k, u in PER_LAYER_UNITS.items()}
    else:
        chosen = {k: (e2e[k], u) for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"detail": detail}))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in chosen.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    rundir = os.path.join(ROOT, ".bench_build", "runs",
                          "%s-%d" % (args.workload, os.getpid()))
    try:
        build()
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     rundir)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as err:
        log("error: %s" % err)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
