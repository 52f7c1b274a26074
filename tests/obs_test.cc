/**
 * @file
 * The observability battery (`ctest -L obs`, DESIGN.md §10): the
 * obs/json reader's closed-world guarantees, log-scaled histogram
 * bucketing and quantiles, deterministic tracer output under a fixed
 * clock shim, shard merging across interleaved pids, torn-shard and
 * torn-line skipping, the checkpoint.write fault-injection scenario
 * (a supervised traced exploration survives an injected worker crash
 * and still merges a valid multi-process timeline), the forked-worker
 * metrics-dump suppression regression, and the xps-report renderer.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explorer.hh"
#include "obs/json.hh"
#include "obs/log.hh"
#include "obs/report.hh"
#include "obs/tracer.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/procpool.hh"

using namespace xps;

namespace
{

std::string
freshDir(const std::string &tag)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("xps_obs_" + tag + "_" +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

void
writeRaw(const std::string &path, const std::string &content)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
}

/** Deterministic test clock: +1 µs per reading. */
uint64_t g_fake_now = 0;
uint64_t
fakeClock()
{
    g_fake_now += 1000;
    return g_fake_now;
}

/** Events of a merged trace file (asserts the file is valid JSON). */
std::vector<obs::json::Value>
loadMergedEvents(const std::string &path)
{
    std::string content;
    EXPECT_TRUE(readFile(path, content)) << path;
    obs::json::Value root;
    EXPECT_TRUE(obs::json::parse(content, root))
        << "merged trace is not valid JSON: " << path;
    EXPECT_TRUE(root.isObject());
    const obs::json::Value *events = root.find("traceEvents");
    EXPECT_NE(events, nullptr);
    return events ? events->items : std::vector<obs::json::Value>{};
}

std::string
shardLine(const char *name, double tsUs, int pid)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"t\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":0.500,\"pid\":%d,\"tid\":1}\n",
                  name, tsUs, pid);
    return buf;
}

} // namespace

// ---------------------------------------------------------------- json

TEST(ObsJson, ParsesObjectsArraysAndScalars)
{
    obs::json::Value v;
    ASSERT_TRUE(obs::json::parse(
        R"({"a": 1.5, "b": "x\ny", "c": [1, 2, 3], "d": true,
            "e": null, "f": {"g": -2e3}})",
        v));
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.numberOr("a", 0), 1.5);
    EXPECT_EQ(v.stringOr("b", ""), "x\ny");
    ASSERT_NE(v.find("c"), nullptr);
    EXPECT_TRUE(v.find("c")->isArray());
    EXPECT_EQ(v.find("c")->items.size(), 3u);
    EXPECT_TRUE(v.find("d")->boolean);
    ASSERT_NE(v.find("f"), nullptr);
    EXPECT_DOUBLE_EQ(v.find("f")->numberOr("g", 0), -2000.0);
}

TEST(ObsJson, RejectsTornInput)
{
    obs::json::Value v;
    EXPECT_FALSE(obs::json::parse(R"({"name":"torn)", v));
    EXPECT_FALSE(obs::json::parse(R"({"a": 1)", v));
    EXPECT_FALSE(obs::json::parse(R"({"a": 1} trailing)", v));
    EXPECT_FALSE(obs::json::parse("", v));
    // A raw control character inside a string is a torn write, not
    // content our emitters produce.
    EXPECT_FALSE(obs::json::parse("{\"a\": \"x\001y\"}", v));
}

TEST(ObsJson, EscapeRoundTripsThroughParse)
{
    const std::string nasty = "a\"b\\c\nd\te\rf\001g";
    obs::json::Value v;
    ASSERT_TRUE(obs::json::parse(
        "{\"k\": \"" + obs::json::escape(nasty) + "\"}", v));
    EXPECT_EQ(v.stringOr("k", ""), nasty);
}

// ----------------------------------------------------------- histogram

TEST(Histogram, BucketIndexIsMonotoneAndBounded)
{
    size_t prev = 0;
    for (uint64_t ns = 0; ns < (1ull << 20); ns = ns * 2 + 1) {
        const size_t idx = Histogram::bucketIndex(ns);
        EXPECT_LT(idx, Histogram::kBuckets);
        EXPECT_GE(idx, prev);
        EXPECT_LE(Histogram::bucketLowNs(idx), ns);
        prev = idx;
    }
    EXPECT_LT(Histogram::bucketIndex(~0ull), Histogram::kBuckets);
}

TEST(Histogram, QuantilesTrackAKnownDistribution)
{
    Histogram h;
    for (uint64_t i = 1; i <= 1000; ++i)
        h.record(i * 1000); // 1 µs .. 1 ms, uniform
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.maxNs(), 1000000u);
    EXPECT_NEAR(h.meanNs(), 500500.0, 1.0);
    // Log buckets with 4 sub-buckets per octave: <= 25% relative
    // error, plus the midpoint convention.
    EXPECT_NEAR(static_cast<double>(h.quantileNs(0.50)), 500000.0,
                0.30 * 500000.0);
    EXPECT_NEAR(static_cast<double>(h.quantileNs(0.95)), 950000.0,
                0.30 * 950000.0);
    EXPECT_GE(h.quantileNs(1.0), h.quantileNs(0.5));
    // Quantiles are bucket midpoints but must never exceed the
    // largest recorded sample.
    EXPECT_LE(h.quantileNs(0.95), h.maxNs());
    EXPECT_LE(h.quantileNs(1.0), h.maxNs());
    Histogram single;
    single.record(5000000);
    EXPECT_LE(single.quantileNs(0.95), 5000000u);
    EXPECT_NEAR(static_cast<double>(single.quantileNs(0.95)),
                5000000.0, 0.25 * 5000000.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantileNs(0.5), 0u);
}

TEST(Histogram, MetricsJsonCarriesSummaries)
{
    Metrics m;
    m.histogram("lat.fed").record(4096);
    m.histogram("lat.empty"); // never fed: must not appear
    const std::string json = m.toJson();
    obs::json::Value v;
    ASSERT_TRUE(obs::json::parse(json, v)) << json;
    const obs::json::Value *histograms = v.find("histograms_ns");
    ASSERT_NE(histograms, nullptr);
    const obs::json::Value *fed = histograms->find("lat.fed");
    ASSERT_NE(fed, nullptr);
    EXPECT_EQ(static_cast<uint64_t>(fed->numberOr("count", 0)), 1u);
    EXPECT_EQ(static_cast<uint64_t>(fed->numberOr("max", 0)), 4096u);
    EXPECT_EQ(histograms->find("lat.empty"), nullptr);
}

// -------------------------------------------------------------- tracer

TEST(Tracer, DeterministicUnderFixedClockAndValidJson)
{
    const std::string dir = freshDir("det");
    auto runOnce = [&](const std::string &path) {
        g_fake_now = 0;
        obs::setClockForTest(&fakeClock);
        obs::configureTracing(path);
        {
            obs::ScopedSpan span("alpha", "test", [] {
                return obs::Args().add("k", 1).add("s", "v");
            });
            obs::instant("tick", "test", [] {
                return obs::Args().add("n", 2.5);
            });
        }
        // Every line of the shard this process wrote must parse on
        // its own (the merger's per-line contract).
        obs::flushTrace();
        const std::string shard =
            path + ".shards/shard." + std::to_string(::getpid()) +
            ".jsonl";
        std::string content;
        EXPECT_TRUE(readFile(shard, content));
        std::istringstream lines(content);
        std::string line;
        size_t parsed = 0;
        while (std::getline(lines, line)) {
            obs::json::Value v;
            EXPECT_TRUE(obs::json::parse(line, v)) << line;
            ++parsed;
        }
        EXPECT_EQ(parsed, 2u);
        const obs::MergeStats stats = obs::mergeTrace();
        obs::disableTracing();
        obs::setClockForTest(nullptr);
        EXPECT_EQ(stats.shards, 1u);
        EXPECT_EQ(stats.events, 2u);
        EXPECT_EQ(stats.tornShards, 0u);
        EXPECT_EQ(stats.tornLines, 0u);
        std::string merged;
        EXPECT_TRUE(readFile(path, merged));
        return merged;
    };
    const std::string first = runOnce(dir + "/a.json");
    const std::string second = runOnce(dir + "/b.json");
    EXPECT_EQ(first, second); // fixed clock => byte-identical output

    const std::vector<obs::json::Value> events =
        loadMergedEvents(dir + "/a.json");
    ASSERT_EQ(events.size(), 2u);
    // Sorted by ts: the span began (2 µs) before the instant (3 µs).
    EXPECT_EQ(events[0].stringOr("name", ""), "alpha");
    EXPECT_DOUBLE_EQ(events[0].numberOr("ts", 0), 2.0);
    EXPECT_DOUBLE_EQ(events[0].numberOr("dur", 0), 2.0);
    EXPECT_EQ(events[1].stringOr("name", ""), "tick");
    ASSERT_NE(events[0].find("args"), nullptr);
    EXPECT_EQ(events[0].find("args")->stringOr("s", ""), "v");
    std::filesystem::remove_all(dir);
}

TEST(Tracer, MergesInterleavedPidShards)
{
    const std::string dir = freshDir("interleave");
    const std::string path = dir + "/trace.json";
    writeRaw(path + ".shards/shard.100.jsonl",
             shardLine("a1", 1.0, 100) + shardLine("a2", 5.0, 100) +
                 shardLine("a3", 9.0, 100));
    writeRaw(path + ".shards/shard.200.jsonl",
             shardLine("b1", 2.0, 200) + shardLine("b2", 3.0, 200) +
                 shardLine("b3", 10.0, 200));
    obs::configureTracing(path);
    const obs::MergeStats stats = obs::mergeTrace();
    obs::disableTracing();
    EXPECT_EQ(stats.shards, 2u);
    EXPECT_EQ(stats.events, 6u);
    const std::vector<obs::json::Value> events =
        loadMergedEvents(path);
    ASSERT_EQ(events.size(), 6u);
    double prev = 0.0;
    std::vector<int> pid_order;
    for (const auto &ev : events) {
        EXPECT_GE(ev.numberOr("ts", -1), prev); // globally sorted
        prev = ev.numberOr("ts", -1);
        pid_order.push_back(static_cast<int>(ev.numberOr("pid", 0)));
    }
    EXPECT_EQ(pid_order,
              (std::vector<int>{100, 200, 200, 100, 100, 200}));
    EXPECT_FALSE(std::filesystem::exists(path + ".shards"));
    std::filesystem::remove_all(dir);
}

TEST(Tracer, SkipsTornLinesAndTornShards)
{
    const std::string dir = freshDir("torn");
    const std::string path = dir + "/trace.json";
    // A shard whose writer died mid-line: the torn tail is dropped,
    // the complete lines survive.
    writeRaw(path + ".shards/shard.300.jsonl",
             shardLine("ok1", 1.0, 300) + shardLine("ok2", 2.0, 300) +
                 "{\"name\":\"torn-mid-wri");
    // A shard with no valid line at all is skipped whole.
    writeRaw(path + ".shards/shard.400.jsonl", "complete garbage\n");
    obs::configureTracing(path);
    const obs::MergeStats stats = obs::mergeTrace();
    obs::disableTracing();
    EXPECT_EQ(stats.shards, 1u);
    EXPECT_EQ(stats.events, 2u);
    EXPECT_EQ(stats.tornLines, 2u); // the torn tail + the garbage line
    EXPECT_EQ(stats.tornShards, 1u);
    const std::vector<obs::json::Value> events =
        loadMergedEvents(path);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].stringOr("name", ""), "ok1");
    EXPECT_EQ(events[1].stringOr("name", ""), "ok2");
    std::filesystem::remove_all(dir);
}

// A traced, supervised, checkpointing exploration with an injected
// checkpoint.write crash (the ISSUE's fault scenario): the worker
// dies mid-round, the supervisor retries, and the merged timeline is
// still one valid multi-process trace — with a hand-torn shard
// skipped rather than corrupting it.
TEST(TracerFault, SupervisedRunSurvivesCheckpointCrash)
{
    const std::string dir = freshDir("fault");
    const std::string trace_path = dir + "/trace.json";
    obs::configureTracing(trace_path);

    ExplorerOptions opts;
    opts.evalInstrs = 4000;
    opts.saIters = 24;
    opts.rounds = 2;
    opts.threads = 1;
    opts.seed = 11;
    opts.finalEvalInstrs = 8000;
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir + "/checkpoints";
    opts.supervised = true;
    opts.supervisorOpts.workers = 2;
    opts.supervisorOpts.heartbeatTimeoutSeconds = 10.0;
    opts.supervisorOpts.maxAttempts = 3;
    opts.supervisorOpts.backoffBaseSeconds = 0.01;
    opts.supervisorOpts.backoffCapSeconds = 0.05;
    opts.supervisorOpts.workDir = dir + "/staging";

    fault::armSchedule("checkpoint.write:crash:1");
    Explorer explorer({profileByName("gzip"), profileByName("mcf")},
                      opts);
    const std::vector<WorkloadResult> results = explorer.exploreAll();
    EXPECT_EQ(fault::firedCount(), 1u);
    fault::armSchedule("");

    ASSERT_EQ(results.size(), 2u);
    EXPECT_GT(results[0].bestIpt, 0.0);
    EXPECT_GE(explorer.supervisorReport().crashes, 1u);
    // The enriched report carries per-attempt timing + exit detail.
    bool saw_crash_attempt = false;
    for (const auto &job : explorer.supervisorReport().jobs) {
        for (const auto &attempt : job.attempts) {
            EXPECT_GT(attempt.endMonoSeconds,
                      attempt.startMonoSeconds);
            if (attempt.outcome ==
                "exit " + std::to_string(fault::kCrashExitCode))
                saw_crash_attempt = true;
        }
    }
    EXPECT_TRUE(saw_crash_attempt);

    // Tear one shard by hand, as a SIGKILL mid-write would.
    writeRaw(trace_path + ".shards/shard.999999.jsonl",
             "{\"name\":\"torn-by-kil");
    const obs::MergeStats stats = obs::mergeTrace();
    obs::disableTracing();
    EXPECT_GE(stats.tornShards, 1u);

    const std::vector<obs::json::Value> events =
        loadMergedEvents(trace_path);
    std::set<int> pids;
    std::set<std::string> names;
    for (const auto &ev : events) {
        pids.insert(static_cast<int>(ev.numberOr("pid", 0)));
        names.insert(ev.stringOr("name", ""));
    }
    // Supervisor + at least two distinct workers on one timeline.
    EXPECT_GE(pids.size(), 3u) << "pids in merged trace";
    EXPECT_TRUE(pids.count(static_cast<int>(::getpid())));
    EXPECT_TRUE(names.count("explore.all"));   // supervisor side
    EXPECT_TRUE(names.count("pool.attempt"));  // supervisor side
    EXPECT_TRUE(names.count("pool.job"));      // worker side
    EXPECT_TRUE(names.count("anneal.accept")); // worker side
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------- metrics suppression

TEST(WorkerMetrics, ForkedWorkerDoesNotClobberParentDump)
{
    const std::string dir = freshDir("metricsenv");
    const std::string path = dir + "/metrics.json";
    writeRaw(path, "SENTINEL");
    ::setenv("XPS_METRICS_JSON", path.c_str(), 1);

    ProcPoolOptions pool_opts;
    pool_opts.workers = 1;
    pool_opts.maxAttempts = 1;
    ProcPool pool(pool_opts);
    std::vector<ProcJob> jobs(1);
    jobs[0].name = "envcheck";
    jobs[0].run = []() -> int {
        // The suppression contract: only the process that started
        // the run dumps, so even a worker exit() that runs atexit
        // handlers with XPS_METRICS_JSON still set must not dump a
        // partial child registry over the parent's file.
        Metrics::global().counter("worker.private").add();
        std::exit(0);
    };
    const std::vector<ProcJobOutcome> outcomes = pool.run(jobs);
    ::unsetenv("XPS_METRICS_JSON");
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, ProcJobOutcome::Status::Done)
        << outcomes[0].lastError;
    std::string content;
    ASSERT_TRUE(readFile(path, content));
    EXPECT_EQ(content, "SENTINEL"); // untouched by the worker
    std::filesystem::remove_all(dir);
}

// -------------------------------------------------------------- report

TEST(Report, RendersSyntheticRun)
{
    const std::string dir = freshDir("report");
    writeRaw(dir + "/metrics.json", R"({
  "counters": {
    "anneal.accepts": 60, "anneal.rejects": 40,
    "anneal.rollbacks": 5, "anneal.evaluations": 100,
    "trace_cache.hits": 8, "trace_cache.misses": 2,
    "cells.hits": 3, "cells.misses": 1,
    "checkpoint.writes": 7
  },
  "timers_seconds": {"explore.anneal_seconds": 1.5},
  "histograms_ns": {
    "sim.run": {"count": 100, "p50": 1500000, "p95": 4000000,
                "max": 9000000, "mean": 1800000.0}
  }
})");
    // A small timeline with spans in two categories and anneal
    // instants for one workload.
    g_fake_now = 0;
    obs::setClockForTest(&fakeClock);
    obs::configureTracing(dir + "/trace.json");
    {
        obs::ScopedSpan sim("sim.run", "sim");
        obs::ScopedSpan io("atomic_file.write", "io");
    }
    obs::instant("anneal.accept", "anneal", [] {
        return obs::Args()
            .add("workload", "gzip")
            .add("step", 3)
            .add("temp", 0.05)
            .add("obj", 1.25);
    });
    obs::instant("anneal.rollback", "anneal", [] {
        return obs::Args()
            .add("workload", "gzip")
            .add("step", 5)
            .add("temp", 0.04)
            .add("obj", 1.25);
    });
    obs::mergeTrace();
    obs::disableTracing();
    obs::setClockForTest(nullptr);

    writeRaw(dir + "/supervisor_report.json", R"({
  "worker_crashes": 1, "worker_hangs": 0, "job_retries": 1,
  "jobs_quarantined": 1,
  "quarantined": [
    {"job": "mcf.round0", "attempts": 3, "last_error": "exit code 97"}
  ],
  "jobs": [
    {"job": "gzip.round0", "status": "done", "attempts": [
      {"attempt": 1, "start_mono_s": 10.0, "end_mono_s": 11.5,
       "outcome": "exit 97", "exit_code": 97, "signal": 0,
       "backoff_s": 0.01},
      {"attempt": 2, "start_mono_s": 11.6, "end_mono_s": 13.0,
       "outcome": "ok", "exit_code": 0, "signal": 0, "backoff_s": 0.0}
    ]}
  ]
})");
    std::filesystem::create_directories(dir + "/checkpoints");
    writeRaw(dir + "/checkpoints/gzip.ckpt", "ckpt-bytes");

    const obs::ReportPaths paths = obs::resolveReportPaths(dir);
    EXPECT_EQ(paths.metrics, dir + "/metrics.json");
    EXPECT_EQ(paths.trace, dir + "/trace.json");
    ASSERT_EQ(paths.supervisorReports.size(), 1u);
    const std::string report = obs::renderReport(paths);

    EXPECT_NE(report.find("80.0% hit ratio"), std::string::npos)
        << report;
    EXPECT_NE(report.find("cell memo          3 hits / 1 misses "
                          "(75.0% hit ratio)"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("accept 60.0%"), std::string::npos);
    EXPECT_NE(report.find("sim.run"), std::string::npos);
    EXPECT_NE(report.find("time by span category"), std::string::npos);
    EXPECT_NE(report.find("anneal convergence by workload"),
              std::string::npos);
    EXPECT_NE(report.find("gzip"), std::string::npos);
    EXPECT_NE(report.find("QUARANTINED mcf.round0"),
              std::string::npos);
    EXPECT_NE(report.find("gzip.round0: done after 2 attempts"),
              std::string::npos);
    EXPECT_NE(report.find("attempt 1: exit 97"), std::string::npos);
    EXPECT_NE(report.find("gzip.ckpt"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Report, SpanCategoryTimeIsExclusiveAndSumsToOutermost)
{
    // explore ⊃ anneal ⊃ sim on two threads of one process, plus a
    // top-level trace span. Summing durations would report 37.5 ms;
    // charging each span only its own time gives rows that add up to
    // the outermost spans' 16.5 ms.
    const std::string dir = freshDir("exclusive");
    std::string events;
    auto span = [&](const char *cat, double ts, double dur, int tid) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s.span\",\"cat\":\"%s\","
                      "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                      "\"pid\":100,\"tid\":%d}",
                      events.empty() ? "" : ",", cat, cat, ts, dur, tid);
        events += buf;
    };
    span("explore", 0, 10000, 1);
    span("anneal", 1000, 7000, 1);
    span("sim", 2000, 3000, 1);
    span("sim", 5000, 2000, 1); // starts where its sibling ends
    span("sim", 8500, 1000, 1); // directly under explore
    span("trace", 12000, 500, 1);
    span("sim", 1000, 3000, 2); // listed before its parents
    span("anneal", 500, 5000, 2);
    span("explore", 0, 6000, 2);
    writeRaw(dir + "/trace.json",
             "{\"traceEvents\":[" + events + "]}\n");

    const std::string report =
        obs::renderReport(obs::resolveReportPaths(dir));
    EXPECT_NE(report.find("rows sum to the outermost spans' 16.5ms"),
              std::string::npos)
        << report;
    std::map<std::string, double> rowsUs;
    std::istringstream lines(
        report.substr(report.find("time by span category")));
    std::string line;
    std::getline(lines, line); // the header
    while (std::getline(lines, line) && line.rfind("    ", 0) == 0) {
        char cat[32], unit[8];
        double value = 0;
        ASSERT_EQ(std::sscanf(line.c_str(), "%31s %lf%7[a-z]", cat,
                              &value, unit),
                  3)
            << line;
        rowsUs[cat] = value * (std::string(unit) == "ms" ? 1000.0 : 1.0);
    }
    ASSERT_EQ(rowsUs.size(), 4u) << report;
    EXPECT_DOUBLE_EQ(rowsUs["explore"], 2000.0 + 1000.0);
    EXPECT_DOUBLE_EQ(rowsUs["anneal"], 2000.0 + 2000.0);
    EXPECT_DOUBLE_EQ(rowsUs["sim"], 6000.0 + 3000.0);
    EXPECT_DOUBLE_EQ(rowsUs["trace"], 500.0);
    double sum = 0;
    for (const auto &[cat, us] : rowsUs)
        sum += us;
    EXPECT_DOUBLE_EQ(sum, 10000.0 + 500.0 + 6000.0);
    std::filesystem::remove_all(dir);
}

TEST(Report, ConvergenceNamesTheRoundOfTheBest)
{
    // Anneal instants count steps within a round. gzip's best comes in
    // round 1 at step 3, below round 0's best step 7; mcf anneals its
    // round 1 on another thread while gzip is still in round 0, so
    // only the span on the instant's own thread may name its round.
    const std::string dir = freshDir("convergence");
    std::string events;
    auto add = [&](const std::string &event) {
        events += (events.empty() ? "" : ",") + event;
    };
    auto round = [&](int tid, double ts, double dur, int r,
                     const char *workload) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"explore.round\",\"cat\":\"explore\","
                      "\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,"
                      "\"pid\":100,\"tid\":%d,\"args\":{\"workload\":"
                      "\"%s\",\"round\":%d}}",
                      ts, dur, tid, workload, r);
        add(buf);
    };
    auto instant = [&](int tid, double ts, const char *name,
                       const char *workload, int step, double obj) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"anneal\",\"ph\":\"i\","
                      "\"ts\":%.1f,\"pid\":100,\"tid\":%d,\"s\":\"t\","
                      "\"args\":{\"workload\":\"%s\",\"step\":%d,"
                      "\"temp\":0.1,\"obj\":%.2f}}",
                      name, ts, tid, workload, step, obj);
        add(buf);
    };
    round(1, 0, 1000, 0, "gzip");
    instant(1, 100, "anneal.accept", "gzip", 2, 1.10);
    instant(1, 700, "anneal.improve", "gzip", 7, 1.30);
    round(1, 1000, 1000, 1, "gzip");
    instant(1, 1200, "anneal.improve", "gzip", 3, 1.50);
    instant(1, 1300, "anneal.accept", "gzip", 4, 1.40);
    instant(1, 1900, "anneal.reject", "gzip", 9, 1.60);
    round(2, 0, 400, 0, "mcf");
    instant(2, 200, "anneal.improve", "mcf", 5, 0.40);
    round(2, 400, 400, 1, "mcf");
    instant(2, 500, "anneal.improve", "mcf", 1, 0.45);
    writeRaw(dir + "/trace.json",
             "{\"traceEvents\":[" + events + "]}\n");

    const std::string report =
        obs::renderReport(obs::resolveReportPaths(dir));
    const size_t table = report.find("anneal convergence by workload");
    ASSERT_NE(table, std::string::npos) << report;
    std::map<std::string, std::string> at;
    std::istringstream lines(report.substr(table));
    std::string line;
    std::getline(lines, line); // the title
    std::getline(lines, line); // the column header
    EXPECT_NE(line.find("round:step"), std::string::npos) << line;
    while (std::getline(lines, line) && line.rfind("    ", 0) == 0) {
        char workload[32], best[32];
        unsigned long long accepts = 0, rejects = 0, rollbacks = 0;
        double obj = 0;
        ASSERT_EQ(std::sscanf(line.c_str(), "%31s %llu %llu %llu %lf %31s",
                              workload, &accepts, &rejects, &rollbacks,
                              &obj, best),
                  6)
            << line;
        at[workload] = best;
        if (std::string(workload) == "gzip") {
            EXPECT_EQ(accepts, 2u);
            EXPECT_EQ(rejects, 1u); // a rejected candidate is no best
            EXPECT_DOUBLE_EQ(obj, 1.5);
        }
    }
    EXPECT_EQ(at["gzip"], "1:3") << report;
    EXPECT_EQ(at["mcf"], "1:1") << report;
    std::filesystem::remove_all(dir);
}

TEST(Report, ServeSectionRendersDaemonHealth)
{
    const std::string dir = freshDir("serve_report");
    writeRaw(dir + "/metrics.json", R"({
  "counters": {
    "serve.requests": 40, "serve.completed": 30, "serve.failed": 2,
    "serve.shed": 8, "serve.coalesced": 3, "serve.cache_hits": 6,
    "serve.cache_misses": 24, "serve.recovered": 1,
    "pool.rollups_merged": 30, "pool.rollups_torn": 1
  },
  "histograms_ns": {
    "serve.job": {"count": 30, "p50": 2000000, "p95": 9000000,
                  "p99": 20000000, "max": 30000000, "mean": 3000000.0},
    "serve.queue_wait": {"count": 30, "p50": 100000, "p95": 500000,
                         "p99": 900000, "max": 1000000, "mean": 150000.0},
    "sim.run": {"count": 900, "p50": 10000, "p95": 40000,
                "p99": 80000, "max": 100000, "mean": 15000.0}
  }
})");
    writeRaw(dir + "/serve/metrics.prom", "xps_serve_requests_total 40\n");
    const obs::ReportPaths paths = obs::resolveReportPaths(dir);
    EXPECT_EQ(paths.prometheus, dir + "/serve/metrics.prom");
    const std::string report = obs::renderReport(paths);
    EXPECT_NE(report.find("Serve"), std::string::npos) << report;
    EXPECT_NE(report.find("20.0% shed"), std::string::npos) << report;
    EXPECT_NE(report.find("20.0% hit ratio"), std::string::npos);
    EXPECT_NE(report.find("SLO percentiles"), std::string::npos);
    EXPECT_NE(report.find("serve.queue_wait"), std::string::npos);
    EXPECT_NE(report.find("20.0ms"), std::string::npos); // serve.job p99
    EXPECT_NE(report.find("30 merged / 1 torn"), std::string::npos);
    // sim.run is not a serve.* histogram: general table only.
    const size_t slo = report.find("SLO percentiles");
    EXPECT_EQ(report.find("sim.run", slo), std::string::npos);
    // Without serve counters the section is skipped unless forced.
    writeRaw(dir + "/metrics.json", R"({"counters": {"x": 1}})");
    obs::ReportPaths quiet = obs::resolveReportPaths(dir);
    EXPECT_EQ(obs::renderReport(quiet).find("Serve"),
              std::string::npos);
    quiet.serve = true;
    EXPECT_NE(obs::renderReport(quiet).find("Serve"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Report, MissingArtifactsDegradeGracefully)
{
    const std::string dir = freshDir("empty");
    const std::string report =
        obs::renderReport(obs::resolveReportPaths(dir));
    EXPECT_NE(report.find("no metrics.json found"), std::string::npos);
    EXPECT_NE(report.find("no trace.json found"), std::string::npos);
    EXPECT_NE(report.find("no supervisor report"), std::string::npos);
    EXPECT_NE(report.find("Checkpoints: none"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- structured log

namespace
{

/** Parsed events of a merged JSONL log stream. */
std::vector<obs::json::Value>
loadMergedLog(const std::string &path)
{
    std::string content;
    EXPECT_TRUE(readFile(path, content)) << path;
    std::vector<obs::json::Value> events;
    std::istringstream lines(content);
    std::string line;
    while (std::getline(lines, line)) {
        obs::json::Value v;
        EXPECT_TRUE(obs::json::parse(line, v)) << line;
        events.push_back(std::move(v));
    }
    return events;
}

std::string
logLine(const char *msg, double tsUs, int pid)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"ts\":%.3f,\"level\":\"info\",\"component\":"
                  "\"t\",\"msg\":\"%s\",\"pid\":%d,\"tid\":1}\n",
                  tsUs, msg, pid);
    return buf;
}

} // namespace

TEST(ObsLog, MergeIsDeterministicAndSchemaComplete)
{
    const std::string dir = freshDir("log_det");
    auto runOnce = [&](const std::string &path) {
        g_fake_now = 0;
        obs::setClockForTest(&fakeClock);
        obs::log::configureLogging(path, obs::log::Level::Debug);
        obs::log::event(obs::log::Level::Debug, "serve", "queued");
        {
            obs::RequestScope rid("r-77");
            obs::log::event(obs::log::Level::Info, "serve",
                            "job completed", [] {
                                return obs::Args()
                                    .add("op", "explore")
                                    .add("ms", 12.5);
                            });
        }
        obs::log::event(obs::log::Level::Error, "pool", "worker died");
        const obs::log::LogMergeStats stats = obs::log::mergeLog();
        obs::log::disableLogging();
        obs::setClockForTest(nullptr);
        EXPECT_EQ(stats.shards, 1u);
        EXPECT_EQ(stats.lines, 3u);
        EXPECT_EQ(stats.tornLines, 0u);
        std::string merged;
        EXPECT_TRUE(readFile(path, merged));
        return merged;
    };
    const std::string first = runOnce(dir + "/a.jsonl");
    const std::string second = runOnce(dir + "/b.jsonl");
    EXPECT_EQ(first, second); // fixed clock => byte-identical stream

    const std::vector<obs::json::Value> events =
        loadMergedLog(dir + "/a.jsonl");
    ASSERT_EQ(events.size(), 3u);
    double prev = 0.0;
    for (const auto &ev : events) {
        EXPECT_GE(ev.numberOr("ts", -1), prev); // ts-sorted
        prev = ev.numberOr("ts", -1);
        EXPECT_FALSE(ev.stringOr("level", "").empty());
        EXPECT_FALSE(ev.stringOr("msg", "").empty());
        EXPECT_EQ(static_cast<int>(ev.numberOr("pid", 0)),
                  static_cast<int>(::getpid()));
    }
    // The rid-scoped event carries the rid and its lazy fields; its
    // neighbours carry neither.
    EXPECT_EQ(events[0].find("rid"), nullptr);
    EXPECT_EQ(events[1].stringOr("rid", ""), "r-77");
    ASSERT_NE(events[1].find("fields"), nullptr);
    EXPECT_EQ(events[1].find("fields")->stringOr("op", ""), "explore");
    EXPECT_EQ(events[2].stringOr("level", ""), "error");
    std::filesystem::remove_all(dir);
}

TEST(ObsLog, EmbeddedNewlinesAndUtf8RoundTrip)
{
    const std::string dir = freshDir("log_nl");
    const std::string path = dir + "/log.jsonl";
    const std::string nasty = "line1\nline2\ttab \"quoted\"";
    const std::string utf8 = "λ≈∞ → done";
    obs::log::configureLogging(path);
    obs::log::event(obs::log::Level::Info, "test", nasty);
    obs::log::event(obs::log::Level::Info, "test", utf8, [&] {
        return obs::Args().add("detail", nasty);
    });
    const obs::log::LogMergeStats stats = obs::log::mergeLog();
    obs::log::disableLogging();
    // The embedded newline must stay escaped inside one JSONL line,
    // never splitting an event across physical lines.
    EXPECT_EQ(stats.lines, 2u);
    EXPECT_EQ(stats.tornLines, 0u);
    const std::vector<obs::json::Value> events = loadMergedLog(path);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].stringOr("msg", ""), nasty);
    EXPECT_EQ(events[1].stringOr("msg", ""), utf8);
    ASSERT_NE(events[1].find("fields"), nullptr);
    EXPECT_EQ(events[1].find("fields")->stringOr("detail", ""), nasty);
    std::filesystem::remove_all(dir);
}

TEST(ObsLog, TornFinalLineCountedAndSkipped)
{
    const std::string dir = freshDir("log_torn");
    const std::string path = dir + "/log.jsonl";
    // A shard whose writer was killed mid-line keeps its complete
    // prefix; a shard with nothing valid is skipped whole.
    writeRaw(path + ".shards/log.300.jsonl",
             logLine("ok1", 1.0, 300) + logLine("ok2", 2.0, 300) +
                 "{\"ts\":3.0,\"level\":\"info\",\"msg\":\"torn-mid");
    writeRaw(path + ".shards/log.400.jsonl", "complete garbage\n");
    const uint64_t torn0 =
        Metrics::global().counter("log.lines_torn").get();
    obs::log::configureLogging(path);
    const obs::log::LogMergeStats stats = obs::log::mergeLog();
    obs::log::disableLogging();
    EXPECT_EQ(stats.shards, 1u);
    EXPECT_EQ(stats.lines, 2u);
    EXPECT_EQ(stats.tornLines, 2u);
    EXPECT_EQ(stats.tornShards, 1u);
    EXPECT_EQ(Metrics::global().counter("log.lines_torn").get() - torn0,
              2u);
    const std::vector<obs::json::Value> events = loadMergedLog(path);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].stringOr("msg", ""), "ok1");
    EXPECT_EQ(events[1].stringOr("msg", ""), "ok2");
    EXPECT_FALSE(std::filesystem::exists(path + ".shards"));
    std::filesystem::remove_all(dir);
}

TEST(ObsLog, RateLimitSuppressesAndSummarizes)
{
    const std::string dir = freshDir("log_rate");
    const std::string path = dir + "/log.jsonl";
    g_fake_now = 0;
    obs::setClockForTest(&fakeClock);
    const uint64_t sup0 =
        Metrics::global().counter("log.suppressed").get();
    obs::log::configureLogging(path, obs::log::Level::Info);
    for (int i = 0; i < 210; ++i)
        obs::log::event(obs::log::Level::Info, "spammy", "spam");
    EXPECT_EQ(Metrics::global().counter("log.suppressed").get() - sup0,
              10u);
    // Rolling past the one-second window emits one summary event in
    // place of the suppressed ones.
    g_fake_now += 2000ull * 1000 * 1000;
    obs::log::event(obs::log::Level::Info, "spammy", "after-window");
    const obs::log::LogMergeStats stats = obs::log::mergeLog();
    obs::log::disableLogging();
    obs::setClockForTest(nullptr);
    EXPECT_EQ(stats.lines, 202u); // 200 kept + 1 summary + 1 fresh
    size_t spam = 0, summaries = 0;
    for (const auto &ev : loadMergedLog(path)) {
        const std::string msg = ev.stringOr("msg", "");
        if (msg == "spam")
            ++spam;
        if (msg.find("suppressed 10 event(s)") != std::string::npos) {
            ++summaries;
            EXPECT_EQ(ev.stringOr("level", ""), "warn");
        }
    }
    EXPECT_EQ(spam, 200u);
    EXPECT_EQ(summaries, 1u);
    std::filesystem::remove_all(dir);
}

// A flood whose window no later event rolls still reaches the merged
// log: the pending summary is written when the log flushes for merge.
TEST(ObsLog, FloodSummaryWrittenAtMerge)
{
    const std::string dir = freshDir("log_flood");
    const std::string path = dir + "/log.jsonl";
    g_fake_now = 0;
    obs::setClockForTest(&fakeClock);
    obs::log::configureLogging(path);
    for (int i = 0; i < 250; ++i) // 250 µs of fake time: one window
        obs::log::event(obs::log::Level::Warn, "flood", "spam");
    const obs::log::LogMergeStats stats = obs::log::mergeLog();
    obs::log::disableLogging();
    obs::setClockForTest(nullptr);
    EXPECT_EQ(stats.lines, 201u); // 200 kept + 1 summary
    size_t summaries = 0;
    for (const auto &ev : loadMergedLog(path)) {
        const std::string msg = ev.stringOr("msg", "");
        if (msg.find("rate limit") == std::string::npos)
            continue;
        ++summaries;
        EXPECT_NE(msg.find("suppressed 50 event(s) from flood"),
                  std::string::npos)
            << msg;
    }
    EXPECT_EQ(summaries, 1u);
    std::filesystem::remove_all(dir);
}

// A merge that cannot write its whole output (a full disk) must not
// publish a truncated file, and must keep the shards it could not
// merge. Both sinks, in a child so the file-size limit stays there.
TEST(ShardSink, FullDiskPublishesNothingAndKeepsShards)
{
    const std::string dir = freshDir("fulldisk");
    const std::string trace = dir + "/trace.json";
    const std::string log = dir + "/log.jsonl";
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        obs::configureTracing(trace);
        obs::log::configureLogging(log);
        for (int i = 0; i < 100; ++i) {
            obs::instant("filler", "test");
            obs::log::event(obs::log::Level::Info, "test", "filler");
        }
        obs::flushTrace();
        obs::log::flushLog();
        // Each merged file is several KiB; past 512 bytes every write
        // fails with EFBIG.
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit limit{};
        ::getrlimit(RLIMIT_FSIZE, &limit);
        limit.rlim_cur = 512;
        ::setrlimit(RLIMIT_FSIZE, &limit);
        obs::mergeTrace();
        obs::log::mergeLog();
        Metrics &m = Metrics::global();
        ::_exit(m.counter("trace.merge_failed").get() == 1 &&
                        m.counter("log.merge_failed").get() == 1
                    ? 0
                    : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "merge failures not counted";
    EXPECT_FALSE(std::filesystem::exists(trace));
    EXPECT_FALSE(std::filesystem::exists(log));
    const std::string child = std::to_string(pid);
    EXPECT_TRUE(std::filesystem::exists(trace + ".shards/shard." +
                                        child + ".jsonl"));
    EXPECT_TRUE(std::filesystem::exists(log + ".shards/log." + child +
                                        ".jsonl"));
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
            << entry.path();
    std::filesystem::remove_all(dir);
}

// ----------------------------------------------- tracer: drops + flows

TEST(Tracer, DroppedSpansCountedWhenShardUnwritable)
{
    const std::string dir = freshDir("drop");
    // The shard directory path collides with a regular file, so the
    // shard can never open: events must be counted, never lost
    // silently, and the process must carry on.
    writeRaw(dir + "/blocker", "not a directory");
    const uint64_t dropped0 =
        Metrics::global().counter("trace.dropped_spans").get();
    obs::configureTracing(dir + "/blocker/trace.json");
    obs::instant("doomed", "test");
    obs::flushTrace();
    obs::instant("doomed2", "test");
    obs::disableTracing();
    EXPECT_GE(Metrics::global().counter("trace.dropped_spans").get() -
                  dropped0,
              2u);
    std::filesystem::remove_all(dir);
}

TEST(Tracer, FlowEventsLinkRidStampedSpansAcrossPids)
{
    const std::string dir = freshDir("flow");
    const std::string path = dir + "/trace.json";
    auto ridSpan = [](const char *name, const char *cat, double tsUs,
                      double durUs, int pid, const char *rid) {
        char buf[224];
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1,"
            "\"rid\":\"%s\"}\n",
            name, cat, tsUs, durUs, pid, rid);
        return std::string(buf);
    };
    // client (mid 2) -> daemon (mid 5) -> worker (mid 6), one rid;
    // an unrelated un-stamped span must not join the flow.
    writeRaw(path + ".shards/shard.100.jsonl",
             ridSpan("client.request", "client", 1.0, 2.0, 100,
                     "r-42"));
    writeRaw(path + ".shards/shard.200.jsonl",
             ridSpan("serve.job", "serve", 3.0, 4.0, 200, "r-42") +
                 shardLine("bystander", 0.5, 200));
    writeRaw(path + ".shards/shard.300.jsonl",
             ridSpan("pool.job", "pool", 5.0, 2.0, 300, "r-42"));
    obs::configureTracing(path);
    const obs::MergeStats stats = obs::mergeTrace();
    obs::disableTracing();
    EXPECT_EQ(stats.shards, 3u);
    EXPECT_EQ(stats.flowEvents, 3u);
    EXPECT_EQ(stats.events, 7u); // 4 originals + s/t/f

    std::vector<obs::json::Value> flows;
    std::set<std::string> ids;
    for (const auto &ev : loadMergedEvents(path)) {
        if (ev.stringOr("cat", "") != "flow")
            continue;
        flows.push_back(ev);
        ids.insert(ev.stringOr("id", ""));
        EXPECT_EQ(ev.stringOr("name", ""), "request");
        ASSERT_NE(ev.find("args"), nullptr);
        EXPECT_EQ(ev.find("args")->stringOr("rid", ""), "r-42");
    }
    ASSERT_EQ(flows.size(), 3u);
    EXPECT_EQ(ids.size(), 1u); // one flow id binds the whole chain
    EXPECT_EQ((*ids.begin()).rfind("0x", 0), 0u);
    // Start at the client, step at the daemon, finish (binding
    // enclosing, so the arrow lands inside the worker slice) at the
    // worker — ordered by span midpoint.
    EXPECT_EQ(flows[0].stringOr("ph", ""), "s");
    EXPECT_EQ(static_cast<int>(flows[0].numberOr("pid", 0)), 100);
    EXPECT_EQ(flows[1].stringOr("ph", ""), "t");
    EXPECT_EQ(static_cast<int>(flows[1].numberOr("pid", 0)), 200);
    EXPECT_EQ(flows[2].stringOr("ph", ""), "f");
    EXPECT_EQ(static_cast<int>(flows[2].numberOr("pid", 0)), 300);
    EXPECT_EQ(flows[2].stringOr("bp", ""), "e");
    std::filesystem::remove_all(dir);
}

// --------------------------------------------- worker metrics rollup

// The satellite regression: a forked worker's histogram samples and
// counters must fold into the parent registry through the ProcPool
// result channel — the daemon's `metrics` op sees worker sim time.
TEST(WorkerMetrics, RollupFoldsWorkerSamplesIntoParent)
{
    Metrics &m = Metrics::global();
    const uint64_t count0 = m.histogram("rollup.sim").count();
    const uint64_t sum0 = m.histogram("rollup.sim").sumNs();
    const uint64_t jobs0 = m.counter("rollup.jobs").get();
    const uint64_t merged0 = m.counter("pool.rollups_merged").get();

    ProcPoolOptions pool_opts;
    pool_opts.workers = 2;
    pool_opts.maxAttempts = 1;
    ProcPool pool(pool_opts);
    std::vector<ProcJob> jobs(2);
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].name = "rollup" + std::to_string(i);
        jobs[i].run = [] {
            // The child registry was reset after fork, so this is a
            // pure delta: exactly these samples, not a re-count of
            // inherited parent totals.
            Metrics &child = Metrics::global();
            child.histogram("rollup.sim").record(1000);
            child.histogram("rollup.sim").record(3000);
            child.histogram("rollup.sim").record(5000000);
            child.counter("rollup.jobs").add();
            return 0;
        };
    }
    const std::vector<ProcJobOutcome> outcomes = pool.run(jobs);
    ASSERT_EQ(outcomes.size(), 2u);
    for (const auto &outcome : outcomes)
        EXPECT_EQ(outcome.status, ProcJobOutcome::Status::Done)
            << outcome.lastError;

    EXPECT_EQ(m.histogram("rollup.sim").count() - count0, 6u);
    EXPECT_EQ(m.histogram("rollup.sim").sumNs() - sum0,
              2u * (1000u + 3000u + 5000000u));
    EXPECT_GE(m.histogram("rollup.sim").maxNs(), 5000000u);
    EXPECT_EQ(m.counter("rollup.jobs").get() - jobs0, 2u);
    EXPECT_EQ(m.counter("pool.rollups_merged").get() - merged0, 2u);
    // Percentiles now see the folded buckets.
    EXPECT_GT(m.histogram("rollup.sim").quantileNs(0.99), 1000u);
}

// The rollup round-trip at the registry level, including bucket-table
// fidelity: quantiles computed after a merge match direct recording.
TEST(WorkerMetrics, RollupSerializationRoundTrips)
{
    Metrics a;
    a.counter("c.one").add(3);
    a.addSeconds("t.wall", 1.25);
    for (uint64_t i = 1; i <= 100; ++i)
        a.histogram("h.lat").record(i * 10000);
    Metrics b;
    b.counter("c.one").add(1);
    ASSERT_TRUE(b.mergeRollup(a.serializeRollup()));
    EXPECT_EQ(b.counter("c.one").get(), 4u);
    EXPECT_EQ(b.histogram("h.lat").count(), 100u);
    EXPECT_EQ(b.histogram("h.lat").sumNs(),
              a.histogram("h.lat").sumNs());
    EXPECT_EQ(b.histogram("h.lat").maxNs(), 1000000u);
    EXPECT_EQ(b.histogram("h.lat").quantileNs(0.5),
              a.histogram("h.lat").quantileNs(0.5));
    EXPECT_EQ(b.histogram("h.lat").quantileNs(0.99),
              a.histogram("h.lat").quantileNs(0.99));
    // Malformed payloads are rejected without tearing the registry.
    EXPECT_FALSE(b.mergeRollup("not json"));
    EXPECT_FALSE(b.mergeRollup("[1,2,3]"));
    EXPECT_EQ(b.histogram("h.lat").count(), 100u);
}

// Prometheus text exposition of the same registry (DESIGN.md §14).
TEST(WorkerMetrics, PrometheusExpositionFormat)
{
    Metrics m;
    m.counter("serve.requests").add(7);
    m.addSeconds("explore.anneal_seconds", 0.5);
    for (uint64_t i = 1; i <= 10; ++i)
        m.histogram("serve.job").record(i * 1000000);
    const std::string text = m.toPrometheus();
    EXPECT_NE(text.find("# TYPE xps_serve_requests_total counter"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("xps_serve_requests_total 7"),
              std::string::npos);
    EXPECT_NE(
        text.find("xps_explore_anneal_seconds_seconds_total 0.500000"),
        std::string::npos);
    EXPECT_NE(text.find("# TYPE xps_serve_job_ns summary"),
              std::string::npos);
    EXPECT_NE(text.find("xps_serve_job_ns{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(text.find("xps_serve_job_ns_count 10"),
              std::string::npos);

    const std::string dir = freshDir("prom");
    m.writePrometheus(dir + "/metrics.prom");
    std::string content;
    ASSERT_TRUE(readFile(dir + "/metrics.prom", content));
    EXPECT_EQ(content, text);
    std::filesystem::remove_all(dir);
}

// The enriched supervisor report is valid JSON and round-trips its
// per-attempt detail through the obs/json reader xps-report uses.
TEST(Report, SupervisorReportJsonRoundTrips)
{
    SupervisorReport report;
    report.crashes = 2;
    report.hangs = 1;
    report.retries = 3;
    report.quarantined.push_back({"bad\njob", 3, "exit \"97\""});
    SupervisedJobRecord job;
    job.name = "gzip.round0";
    job.status = "done";
    ProcAttempt attempt;
    attempt.attempt = 1;
    attempt.startMonoSeconds = 1.25;
    attempt.endMonoSeconds = 2.5;
    attempt.outcome = "hang";
    attempt.exitCode = -1;
    attempt.signal = 9;
    attempt.backoffSeconds = 0.01;
    job.attempts.push_back(attempt);
    report.jobs.push_back(job);

    obs::json::Value v;
    ASSERT_TRUE(obs::json::parse(report.toJson(), v))
        << report.toJson();
    EXPECT_DOUBLE_EQ(v.numberOr("worker_crashes", 0), 2.0);
    EXPECT_DOUBLE_EQ(v.numberOr("jobs_quarantined", 0), 1.0);
    const obs::json::Value *quarantined = v.find("quarantined");
    ASSERT_NE(quarantined, nullptr);
    ASSERT_EQ(quarantined->items.size(), 1u);
    EXPECT_EQ(quarantined->items[0].stringOr("job", ""), "bad\njob");
    const obs::json::Value *jobs = v.find("jobs");
    ASSERT_NE(jobs, nullptr);
    ASSERT_EQ(jobs->items.size(), 1u);
    const obs::json::Value *attempts = jobs->items[0].find("attempts");
    ASSERT_NE(attempts, nullptr);
    ASSERT_EQ(attempts->items.size(), 1u);
    const obs::json::Value &a = attempts->items[0];
    EXPECT_EQ(a.stringOr("outcome", ""), "hang");
    EXPECT_DOUBLE_EQ(a.numberOr("start_mono_s", 0), 1.25);
    EXPECT_DOUBLE_EQ(a.numberOr("end_mono_s", 0), 2.5);
    EXPECT_DOUBLE_EQ(a.numberOr("signal", 0), 9.0);
    EXPECT_DOUBLE_EQ(a.numberOr("backoff_s", 0), 0.01);
}
