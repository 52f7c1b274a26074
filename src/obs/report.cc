#include "obs/report.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.hh"
#include "util/atomic_file.hh"

namespace xps
{
namespace obs
{

namespace
{

std::string
existingFile(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(path, ec) ? path : "";
}

bool
loadJson(const std::string &path, json::Value &out)
{
    std::string content;
    return !path.empty() && readFile(path, content) &&
           json::parse(content, out);
}

std::string
percent(double num, double den)
{
    char buf[32];
    if (den <= 0)
        return "n/a";
    std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * num / den);
    return buf;
}

/** Counter value by name, 0 when absent. */
uint64_t
counterOf(const json::Value &metrics, const std::string &name)
{
    const json::Value *counters = metrics.find("counters");
    if (!counters)
        return 0;
    return static_cast<uint64_t>(counters->numberOr(name, 0.0));
}

void
renderMetrics(std::ostringstream &out, const ReportPaths &paths)
{
    out << "Metrics";
    json::Value metrics;
    if (!loadJson(paths.metrics, metrics) || !metrics.isObject()) {
        out << ": "
            << (paths.metrics.empty() ? "no metrics.json found"
                                      : "unreadable: " + paths.metrics)
            << "\n\n";
        return;
    }
    out << " (" << paths.metrics << ")\n";

    const uint64_t accepts = counterOf(metrics, "anneal.accepts");
    const uint64_t rejects = counterOf(metrics, "anneal.rejects");
    const uint64_t rollbacks = counterOf(metrics, "anneal.rollbacks");
    const uint64_t steps = accepts + rejects;
    out << "  sim evaluations    "
        << counterOf(metrics, "anneal.evaluations") << "\n";
    out << "  anneal steps       " << steps << " (accept "
        << percent(static_cast<double>(accepts),
                   static_cast<double>(steps))
        << ", rollback "
        << percent(static_cast<double>(rollbacks),
                   static_cast<double>(steps))
        << ")\n";
    auto hitLine = [&](const char *label, const std::string &prefix) {
        const uint64_t hits = counterOf(metrics, prefix + ".hits");
        const uint64_t misses = counterOf(metrics, prefix + ".misses");
        out << label << hits << " hits / " << misses << " misses ("
            << percent(static_cast<double>(hits),
                       static_cast<double>(hits + misses))
            << " hit ratio)\n";
    };
    hitLine("  trace cache        ", "trace_cache");
    hitLine("  cell memo          ", "cells");
    out << "  checkpoint writes  "
        << counterOf(metrics, "checkpoint.writes") << "\n";

    const json::Value *histograms = metrics.find("histograms_ns");
    if (histograms && histograms->isObject() &&
        !histograms->fields.empty()) {
        out << "  latency distributions:\n";
        char row[192];
        std::snprintf(row, sizeof(row),
                      "    %-18s %10s %10s %10s %10s %10s\n", "name",
                      "count", "p50", "p95", "p99", "max");
        out << row;
        for (const auto &[name, h] : histograms->fields) {
            std::snprintf(
                row, sizeof(row),
                "    %-18s %10llu %10s %10s %10s %10s\n", name.c_str(),
                static_cast<unsigned long long>(h.numberOr("count", 0)),
                formatNs(h.numberOr("p50", 0)).c_str(),
                formatNs(h.numberOr("p95", 0)).c_str(),
                formatNs(h.numberOr("p99", 0)).c_str(),
                formatNs(h.numberOr("max", 0)).c_str());
            out << row;
        }
    }
    out << "\n";
}

/**
 * Daemon health from the same metrics dump (DESIGN.md §14): admission
 * counters with the overload ratio, cache effectiveness, worker
 * rollup integrity, and SLO percentiles for the serve.* histograms.
 * Skipped for runs that never served a request unless forced.
 */
void
renderServe(std::ostringstream &out, const ReportPaths &paths)
{
    json::Value metrics;
    const bool loaded =
        loadJson(paths.metrics, metrics) && metrics.isObject();
    const uint64_t requests =
        loaded ? counterOf(metrics, "serve.requests") : 0;
    if (requests == 0 && !paths.serve)
        return;
    out << "Serve";
    if (!loaded) {
        out << ": no metrics dump to read daemon health from\n\n";
        return;
    }
    out << "\n";
    const uint64_t shed = counterOf(metrics, "serve.shed");
    out << "  requests           " << requests << " (completed "
        << counterOf(metrics, "serve.completed") << ", failed "
        << counterOf(metrics, "serve.failed") << ", shed " << shed
        << ")\n";
    out << "  overload ratio     "
        << percent(static_cast<double>(shed),
                   static_cast<double>(requests))
        << " shed\n";
    const uint64_t hits = counterOf(metrics, "serve.cache_hits");
    const uint64_t misses = counterOf(metrics, "serve.cache_misses");
    out << "  coalesced          "
        << counterOf(metrics, "serve.coalesced") << ", cache " << hits
        << " hits / " << misses << " misses ("
        << percent(static_cast<double>(hits),
                   static_cast<double>(hits + misses))
        << " hit ratio)\n";
    out << "  recovered jobs     "
        << counterOf(metrics, "serve.recovered") << ", rollups "
        << counterOf(metrics, "pool.rollups_merged") << " merged / "
        << counterOf(metrics, "pool.rollups_torn") << " torn\n";

    const json::Value *hists = metrics.find("histograms_ns");
    if (hists && hists->isObject()) {
        bool header = false;
        char row[192];
        for (const auto &[name, h] : hists->fields) {
            if (name.rfind("serve.", 0) != 0 || !h.isObject())
                continue;
            if (!header) {
                out << "  SLO percentiles:\n";
                std::snprintf(row, sizeof(row),
                              "    %-22s %10s %10s %10s %10s %10s\n",
                              "name", "count", "p50", "p95", "p99",
                              "max");
                out << row;
                header = true;
            }
            std::snprintf(
                row, sizeof(row),
                "    %-22s %10llu %10s %10s %10s %10s\n", name.c_str(),
                static_cast<unsigned long long>(h.numberOr("count", 0)),
                formatNs(h.numberOr("p50", 0)).c_str(),
                formatNs(h.numberOr("p95", 0)).c_str(),
                formatNs(h.numberOr("p99", 0)).c_str(),
                formatNs(h.numberOr("max", 0)).c_str());
            out << row;
        }
    }
    if (!paths.prometheus.empty())
        out << "  prometheus         " << paths.prometheus << "\n";
    out << "\n";
}

/** Per-workload anneal statistics reconstructed from instants. */
struct WorkloadConvergence
{
    uint64_t accepts = 0;
    uint64_t rejects = 0;
    uint64_t rollbacks = 0;
    double bestObj = 0.0;
    int64_t bestRound = -1; ///< -1: no enclosing explore.round span
    uint64_t bestStep = 0;  ///< iteration within bestRound
};

/** A (pid, tid) timeline. */
using ThreadKey = std::pair<int, uint64_t>;

/** One anneal.* instant, in µs. */
struct AnnealInstant
{
    ThreadKey thread;
    double ts;
    std::string name;
    const json::Value *args;
};

/** One explore.round span, in µs: the round its thread annealed. */
struct RoundSpan
{
    double ts;
    double dur;
    int64_t round;
};

/** The round of the explore.round span enclosing `ts` in `rounds`
 *  (sorted by start; rounds on one thread do not nest), or -1. */
int64_t
enclosingRound(const std::vector<RoundSpan> &rounds, double ts)
{
    auto it = std::upper_bound(
        rounds.begin(), rounds.end(), ts,
        [](double t, const RoundSpan &r) { return t < r.ts; });
    if (it == rounds.begin())
        return -1;
    --it;
    return ts <= it->ts + it->dur ? it->round : -1;
}

/** One complete ("X") span on a thread's timeline, in µs. */
struct TimedSpan
{
    double ts;
    double dur;
    std::string cat;
};

/**
 * Exclusive time per span category. Spans nest on a thread (explore
 * ⊃ anneal ⊃ sim), so summing durations counts a nested second once
 * per enclosing span; instead each span is charged its duration minus
 * its direct children's on its (pid, tid). The rows then sum to the
 * outermost spans' total, returned in `outermostUs`.
 */
std::map<std::string, double>
exclusiveByCategory(
    std::map<std::pair<int, uint64_t>, std::vector<TimedSpan>> &threads,
    double &outermostUs)
{
    std::map<std::string, double> byCat;
    outermostUs = 0;
    for (auto &[thread, spans] : threads) {
        // Parents first: by start, and the longer of two spans that
        // start together encloses the shorter.
        std::sort(spans.begin(), spans.end(),
                  [](const TimedSpan &a, const TimedSpan &b) {
                      return a.ts != b.ts ? a.ts < b.ts
                                          : a.dur > b.dur;
                  });
        std::vector<const TimedSpan *> open;
        for (const TimedSpan &span : spans) {
            while (!open.empty() &&
                   open.back()->ts + open.back()->dur <= span.ts)
                open.pop_back();
            byCat[span.cat] += span.dur;
            if (open.empty())
                outermostUs += span.dur;
            else
                byCat[open.back()->cat] -= span.dur;
            open.push_back(&span);
        }
    }
    return byCat;
}

void
renderTrace(std::ostringstream &out, const ReportPaths &paths)
{
    out << "Trace";
    json::Value trace;
    if (!loadJson(paths.trace, trace) || !trace.isObject() ||
        !trace.find("traceEvents")) {
        out << ": "
            << (paths.trace.empty() ? "no trace.json found"
                                    : "unreadable: " + paths.trace)
            << "\n\n";
        return;
    }
    out << " (" << paths.trace << ")\n";

    const json::Value &events = *trace.find("traceEvents");
    std::set<int> pids;
    std::map<ThreadKey, std::vector<TimedSpan>> threads;
    std::map<ThreadKey, std::vector<RoundSpan>> rounds;
    std::vector<AnnealInstant> anneals;
    size_t spans = 0, instants = 0;
    for (const json::Value &ev : events.items) {
        if (!ev.isObject())
            continue;
        const int pid = static_cast<int>(ev.numberOr("pid", 0));
        pids.insert(pid);
        const ThreadKey thread{
            pid, static_cast<uint64_t>(ev.numberOr("tid", 0))};
        const std::string ph = ev.stringOr("ph", "");
        const std::string name = ev.stringOr("name", "");
        const json::Value *args = ev.find("args");
        if (ph == "X") {
            ++spans;
            const double ts = ev.numberOr("ts", 0.0);
            const double dur = ev.numberOr("dur", 0.0);
            threads[thread].push_back(
                TimedSpan{ts, dur, ev.stringOr("cat", "?")});
            if (name == "explore.round" && args)
                rounds[thread].push_back(RoundSpan{
                    ts, dur,
                    static_cast<int64_t>(args->numberOr("round", -1))});
        } else if (ph == "i") {
            ++instants;
            if (name.rfind("anneal.", 0) == 0 && args)
                anneals.push_back(AnnealInstant{
                    thread, ev.numberOr("ts", 0.0), name, args});
        }
    }

    // Each anneal.* instant's step counts iterations within a round:
    // its round is the explore.round span enclosing it on its thread.
    // In time order, the first instant to reach a workload's best
    // objective names where the best was found.
    for (auto &[thread, list] : rounds)
        std::sort(list.begin(), list.end(),
                  [](const RoundSpan &a, const RoundSpan &b) {
                      return a.ts < b.ts;
                  });
    std::stable_sort(anneals.begin(), anneals.end(),
                     [](const AnnealInstant &a, const AnnealInstant &b) {
                         return a.ts < b.ts;
                     });
    std::map<std::string, WorkloadConvergence> workloads;
    for (const AnnealInstant &inst : anneals) {
        WorkloadConvergence &w =
            workloads[inst.args->stringOr("workload", "?")];
        const double obj = inst.args->numberOr("obj", 0.0);
        if (inst.name == "anneal.accept")
            ++w.accepts;
        else if (inst.name == "anneal.reject")
            ++w.rejects;
        else if (inst.name == "anneal.rollback")
            ++w.rollbacks;
        if ((inst.name == "anneal.accept" ||
             inst.name == "anneal.improve") &&
            obj > w.bestObj) {
            w.bestObj = obj;
            const auto it = rounds.find(inst.thread);
            w.bestRound = it == rounds.end()
                              ? -1
                              : enclosingRound(it->second, inst.ts);
            w.bestStep = static_cast<uint64_t>(
                inst.args->numberOr("step", 0.0));
        }
    }

    out << "  " << events.items.size() << " events (" << spans
        << " spans, " << instants << " instants) across "
        << pids.size() << " process" << (pids.size() == 1 ? "" : "es")
        << "\n";

    double totalUs = 0;
    const std::map<std::string, double> categoryUs =
        exclusiveByCategory(threads, totalUs);
    if (!categoryUs.empty()) {
        std::vector<std::pair<std::string, double>> byTime(
            categoryUs.begin(), categoryUs.end());
        std::sort(byTime.begin(), byTime.end(),
                  [](const auto &a, const auto &b) {
                      return a.second > b.second;
                  });
        out << "  time by span category (exclusive of nested spans; "
               "rows sum to the outermost spans' "
            << formatNs(totalUs * 1000.0) << "):\n";
        for (const auto &[cat, us] : byTime) {
            char row[128];
            std::snprintf(row, sizeof(row), "    %-12s %10s  %s\n",
                          cat.c_str(),
                          formatNs(us * 1000.0).c_str(),
                          percent(us, totalUs).c_str());
            out << row;
        }
    }

    if (!workloads.empty()) {
        out << "  anneal convergence by workload:\n";
        char row[160];
        std::snprintf(row, sizeof(row),
                      "    %-14s %8s %8s %9s %12s %10s\n", "workload",
                      "accepts", "rejects", "rollbacks", "best obj",
                      "round:step");
        out << row;
        for (const auto &[name, w] : workloads) {
            char at[48];
            if (w.bestRound >= 0)
                std::snprintf(at, sizeof(at), "%lld:%llu",
                              static_cast<long long>(w.bestRound),
                              static_cast<unsigned long long>(w.bestStep));
            else
                std::snprintf(at, sizeof(at), "?:%llu",
                              static_cast<unsigned long long>(w.bestStep));
            std::snprintf(
                row, sizeof(row),
                "    %-14s %8llu %8llu %9llu %12.4f %10s\n",
                name.c_str(),
                static_cast<unsigned long long>(w.accepts),
                static_cast<unsigned long long>(w.rejects),
                static_cast<unsigned long long>(w.rollbacks),
                w.bestObj, at);
            out << row;
        }
    }
    out << "\n";
}

void
renderAttempt(std::ostringstream &out, const json::Value &attempt)
{
    const double start = attempt.numberOr("start_mono_s", 0.0);
    const double end = attempt.numberOr("end_mono_s", 0.0);
    char row[192];
    std::snprintf(row, sizeof(row),
                  "      attempt %d: %-22s %8.3fs wall%s\n",
                  static_cast<int>(attempt.numberOr("attempt", 0)),
                  attempt.stringOr("outcome", "?").c_str(),
                  end >= start ? end - start : 0.0,
                  attempt.numberOr("backoff_s", 0.0) > 0.0
                      ? "  (backoff applied)"
                      : "");
    out << row;
}

void
renderSupervision(std::ostringstream &out, const ReportPaths &paths)
{
    if (paths.supervisorReports.empty()) {
        out << "Supervision: no supervisor report found\n\n";
        return;
    }
    for (const std::string &path : paths.supervisorReports) {
        out << "Supervision (" << path << ")\n";
        json::Value report;
        if (!loadJson(path, report) || !report.isObject()) {
            out << "  unreadable\n\n";
            continue;
        }
        out << "  crashes "
            << static_cast<uint64_t>(
                   report.numberOr("worker_crashes", 0))
            << ", hangs "
            << static_cast<uint64_t>(report.numberOr("worker_hangs", 0))
            << ", retries "
            << static_cast<uint64_t>(report.numberOr("job_retries", 0))
            << ", quarantined "
            << static_cast<uint64_t>(
                   report.numberOr("jobs_quarantined", 0))
            << "\n";
        const json::Value *jobs = report.find("jobs");
        if (jobs && jobs->isArray()) {
            for (const json::Value &job : jobs->items) {
                if (!job.isObject())
                    continue;
                const json::Value *attempts = job.find("attempts");
                const size_t n =
                    attempts && attempts->isArray()
                        ? attempts->items.size()
                        : 0;
                // Single clean attempts are the boring common case;
                // list only jobs that needed supervision.
                const std::string status =
                    job.stringOr("status", "done");
                if (n <= 1 && status == "done")
                    continue;
                out << "    " << job.stringOr("job", "?") << ": "
                    << status << " after " << n << " attempt"
                    << (n == 1 ? "" : "s") << "\n";
                if (attempts) {
                    for (const json::Value &attempt : attempts->items)
                        renderAttempt(out, attempt);
                }
            }
        }
        const json::Value *quarantined = report.find("quarantined");
        if (quarantined && quarantined->isArray()) {
            for (const json::Value &q : quarantined->items) {
                out << "    QUARANTINED " << q.stringOr("job", "?")
                    << ": " << q.stringOr("last_error", "?") << "\n";
            }
        }
        out << "\n";
    }
}

void
renderCheckpoints(std::ostringstream &out, const ReportPaths &paths)
{
    out << "Checkpoints";
    if (paths.checkpointDir.empty()) {
        out << ": none\n";
        return;
    }
    out << " (" << paths.checkpointDir << ")\n";
    std::error_code ec;
    std::vector<std::pair<std::string, uintmax_t>> files;
    std::filesystem::directory_iterator it(paths.checkpointDir, ec);
    if (!ec) {
        for (const auto &entry : it) {
            if (entry.is_regular_file(ec))
                files.emplace_back(entry.path().filename().string(),
                                   entry.file_size(ec));
        }
    }
    std::sort(files.begin(), files.end());
    for (const auto &[name, size] : files)
        out << "  " << name << "  " << size << " bytes\n";
    if (files.empty())
        out << "  (empty)\n";
}

} // namespace

std::string
formatNs(double ns)
{
    char buf[48];
    if (ns < 1e3)
        std::snprintf(buf, sizeof(buf), "%.0fns", ns);
    else if (ns < 1e6)
        std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
    else if (ns < 1e9)
        std::snprintf(buf, sizeof(buf), "%.1fms", ns / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
    return buf;
}

ReportPaths
resolveReportPaths(const std::string &dir)
{
    ReportPaths paths;
    paths.dir = dir;
    paths.metrics = existingFile(dir + "/metrics.json");
    // A serve daemon's registry dump naturally lands in its state dir
    // next to metrics.prom; fall back there when the root has none.
    if (paths.metrics.empty())
        paths.metrics = existingFile(dir + "/serve/metrics.json");
    paths.trace = existingFile(dir + "/trace.json");
    for (const char *name :
         {"supervisor_report.json", "matrix_supervisor_report.json"}) {
        const std::string found = existingFile(dir + "/" + name);
        if (!found.empty())
            paths.supervisorReports.push_back(found);
    }
    std::error_code ec;
    if (std::filesystem::is_directory(dir + "/checkpoints", ec))
        paths.checkpointDir = dir + "/checkpoints";
    paths.prometheus = existingFile(dir + "/serve/metrics.prom");
    return paths;
}

std::string
renderReport(const ReportPaths &paths)
{
    std::ostringstream out;
    out << "xps-report: " << paths.dir << "\n\n";
    renderMetrics(out, paths);
    renderServe(out, paths);
    renderTrace(out, paths);
    renderSupervision(out, paths);
    renderCheckpoints(out, paths);
    return out.str();
}

} // namespace obs
} // namespace xps
