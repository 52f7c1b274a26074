/**
 * @file
 * Machine-readable evidence for the simulator's inner loop, plus a
 * machine-independent work gate. Writes BENCH_results.json (argv[1],
 * default ./BENCH_results.json); `make bench-json` runs it from the
 * build tree. Sections:
 *  - work_counters: how much work a fixed reduced-budget Explorer
 *    pass plus PerfMatrix::build does (evaluations, simulations, cell
 *    memo and trace cache traffic, checkpoint writes). The counts
 *    depend only on the code, not on the host or the thread count, so
 *    CI requires them to equal the checked-in file exactly;
 *  - micro_op_stream: generator vs trace replay cost per op (min of
 *    5);
 *  - annealer_round: one annealing round on gcc's trace (median ms);
 *  - latency histograms and all runtime metrics.
 * See README.md "Benchmarking".
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "comm/perf_matrix.hh"
#include "explore/annealer.hh"
#include "explore/explorer.hh"
#include "explore/search_space.hh"
#include "sim/simulator.hh"
#include "timing/unit_timing.hh"
#include "util/metrics.hh"
#include "util/procpool.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workload/trace.hh"

using namespace xps;

namespace
{

using Clock = std::chrono::steady_clock;

double
timeMs(const std::function<void()> &body)
{
    const auto t0 = Clock::now();
    body();
    const std::chrono::duration<double, std::milli> dt =
        Clock::now() - t0;
    return dt.count();
}

double
minOfN(int reps, const std::function<void()> &body)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r)
        best = std::min(best, timeMs(body));
    return best;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The gated counters: registry counter name -> reported name. */
const std::vector<std::pair<std::string, std::string>> kWorkCounters = {
    {"anneal.evaluations", "anneal.evaluations"},
    {"cells.hits", "cells.hits"},
    {"cells.misses", "cells.misses"},
    {"checkpoint.writes", "explore.checkpoint_writes"},
    {"trace_cache.grows", "trace_cache.grows"},
    {"trace_cache.misses", "trace_cache.misses"},
};

/** Every counter, plus the sim.run sample count as "sim.runs". */
std::map<std::string, uint64_t>
workSnapshot()
{
    const Metrics::Snapshot snap = Metrics::global().snapshot();
    std::map<std::string, uint64_t> out(snap.counters.begin(),
                                        snap.counters.end());
    for (const auto &[name, h] : snap.histograms) {
        if (name == "sim.run")
            out["sim.runs"] = h.count;
    }
    return out;
}

/**
 * The fixed work unit: explore three workloads at a tiny budget over
 * two rounds, checkpointing into a scratch directory, then build the
 * 3x3 matrix of their cores at the final length. Returns the work it
 * did, in sorted name order.
 */
std::map<std::string, uint64_t>
countWork()
{
    const auto before = workSnapshot();
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("xps_bench_work_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);

    const std::vector<WorkloadProfile> suite = {
        profileByName("gzip"), profileByName("mcf"),
        profileByName("twolf")};
    ExplorerOptions opts;
    opts.evalInstrs = 2000;
    opts.saIters = 16;
    opts.rounds = 2;
    opts.finalEvalInstrs = 4000;
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    Explorer explorer(suite, opts);
    const std::vector<WorkloadResult> results = explorer.exploreAll();
    std::vector<CoreConfig> configs;
    uint64_t evaluations = 0;
    for (const WorkloadResult &r : results) {
        configs.push_back(r.best);
        evaluations += r.evaluations;
    }
    PerfMatrix::build(suite, configs, opts.finalEvalInstrs);
    std::filesystem::remove_all(dir);

    const auto after = workSnapshot();
    auto delta = [&](const std::string &name) {
        const auto a = after.find(name), b = before.find(name);
        return (a == after.end() ? 0 : a->second) -
               (b == before.end() ? 0 : b->second);
    };
    std::map<std::string, uint64_t> out;
    out["explore.evaluations"] = evaluations;
    out["sim.runs"] = delta("sim.runs");
    for (const auto &[counter, reported] : kWorkCounters)
        out[reported] = delta(counter);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out =
        argc > 1 ? argv[1] : std::string("BENCH_results.json");

    // First, while the trace registry and the cell memo are empty.
    const std::map<std::string, uint64_t> work = countWork();
    for (const auto &[name, count] : work)
        std::printf("work %-26s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));

    // Generator vs replay op cost.
    constexpr uint64_t kOps = 1 << 20;
    const WorkloadProfile &gcc = profileByName("gcc");
    double genMs = 0.0;
    {
        uint64_t sink = 0;
        genMs = minOfN(5, [&] {
            SyntheticWorkload gen(gcc);
            for (uint64_t i = 0; i < kOps; ++i)
                sink += static_cast<uint64_t>(gen.next().cls);
        });
        volatile uint64_t keep = sink;
        (void)keep;
    }
    const auto gccTrace = sharedTrace(gcc, 0, kOps);
    double replayMs = 0.0;
    {
        uint64_t sink = 0;
        replayMs = minOfN(5, [&] {
            TraceCursor cursor(gccTrace);
            for (uint64_t i = 0; i < kOps; ++i)
                sink += static_cast<uint64_t>(cursor.next().cls);
        });
        volatile uint64_t keep = sink;
        (void)keep;
    }

    // One annealer round (the inner loop of the exploration).
    UnitTiming timing;
    SearchSpace space(timing);
    constexpr uint64_t kRoundIters = 20;
    constexpr uint64_t kRoundInstrs = 10000;
    constexpr int kRoundReps = 11;
    std::vector<double> roundMs;
    for (int r = 0; r <= kRoundReps; ++r) {
        const double ms = timeMs([&] {
            SimOptions opts;
            opts.measureInstrs = kRoundInstrs;
            AnnealParams params;
            params.iterations = kRoundIters;
            Annealer annealer(
                space,
                [&](const CoreConfig &c) {
                    return simulate(gcc, c, opts).ipt();
                },
                params);
            volatile double s = annealer.run(space.initialConfig())
                                    .bestScore;
            (void)s;
        });
        if (r > 0) // the first round builds the trace: untimed
            roundMs.push_back(ms);
    }
    const double roundMedianMs = median(roundMs);
    std::printf("generate %.2f ns/op, replay %.2f ns/op\n",
                genMs * 1e6 / static_cast<double>(kOps),
                replayMs * 1e6 / static_cast<double>(kOps));
    std::printf("annealer round (%llu evals x %llu instrs, gcc): "
                "%.1f ms\n",
                static_cast<unsigned long long>(kRoundIters),
                static_cast<unsigned long long>(kRoundInstrs),
                roundMedianMs);

    // Worker-job latency: a small supervised batch after the timed
    // sections (fork noise must not disturb the timed numbers).
    {
        ProcPoolOptions pool_opts;
        pool_opts.workers = 2;
        pool_opts.maxAttempts = 1;
        ProcPool pool(pool_opts);
        std::vector<ProcJob> jobs(4);
        for (size_t j = 0; j < jobs.size(); ++j) {
            jobs[j].name = "bench.job" + std::to_string(j);
            jobs[j].run = [] {
                SimOptions opts;
                opts.measureInstrs = 4000;
                volatile uint64_t c =
                    simulate(profileByName("gzip"),
                             CoreConfig::initial(), opts)
                        .cycles;
                (void)c;
                return 0;
            };
        }
        pool.run(jobs);
    }

    FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"schema\": 2,\n"
                 "  \"settings\": {\"work\": \"explore gzip/mcf/twolf, "
                 "evalInstrs 2000, saIters 16, 2 rounds, final 4000, "
                 "checkpoint every 4; then their 3x3 matrix\", "
                 "\"timing\": \"micro_op_stream: min of 5; "
                 "annealer_round: median of %d\"},\n",
                 kRoundReps);
    std::fprintf(f, "  \"work_counters\": {");
    {
        size_t i = 0;
        for (const auto &[name, count] : work) {
            std::fprintf(f, "%s\n    \"%s\": %llu", i++ ? "," : "",
                         name.c_str(),
                         static_cast<unsigned long long>(count));
        }
    }
    std::fprintf(f, "\n  },\n");
    std::fprintf(f,
                 "  \"micro_op_stream\": {\"generate_ns_per_op\": %.2f, "
                 "\"replay_ns_per_op\": %.2f, \"speedup\": %.2f},\n",
                 genMs * 1e6 / static_cast<double>(kOps),
                 replayMs * 1e6 / static_cast<double>(kOps),
                 genMs / replayMs);
    std::fprintf(f,
                 "  \"annealer_round\": {\"evals\": %llu, "
                 "\"instrs_per_eval\": %llu, \"workload\": \"gcc\", "
                 "\"ms\": %.3f},\n",
                 static_cast<unsigned long long>(kRoundIters),
                 static_cast<unsigned long long>(kRoundInstrs),
                 roundMedianMs);
    // Latency distributions across everything above: sim.run and
    // anneal.step from the work pass and the timed round, pool.job
    // from the supervised batch.
    {
        const Metrics::Snapshot snap = Metrics::global().snapshot();
        std::fprintf(f, "  \"latency_histograms_ns\": {");
        for (size_t i = 0; i < snap.histograms.size(); ++i) {
            const auto &[name, h] = snap.histograms[i];
            std::fprintf(
                f,
                "%s\n    \"%s\": {\"count\": %llu, \"p50\": %llu, "
                "\"p95\": %llu, \"max\": %llu, \"mean\": %.1f}",
                i ? "," : "", name.c_str(),
                static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(h.p50Ns),
                static_cast<unsigned long long>(h.p95Ns),
                static_cast<unsigned long long>(h.maxNs), h.meanNs);
        }
        std::fprintf(f, "\n  },\n");
    }
    // Runtime metrics accumulated across everything above (trace
    // cache hit rates, annealer accept/reject counts, phase timers).
    std::fprintf(f, "  \"metrics\": %s\n",
                 Metrics::global().toJson().c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
