/**
 * @file
 * Unit and property tests for src/explore: search-space moves always
 * produce legal configurations, the annealer improves analytic
 * objectives and honours the paper's rollback rule, the explorer
 * produces customized configurations end to end on a small budget,
 * and the thread count changes neither results nor checkpoint bytes.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "comm/perf_matrix.hh"
#include "explore/annealer.hh"
#include "explore/explorer.hh"
#include "explore/search_space.hh"
#include "sim/cells.hh"
#include "util/atomic_file.hh"

using namespace xps;

namespace
{

const UnitTiming &
timing()
{
    static const UnitTiming t;
    return t;
}

const SearchSpace &
space()
{
    static const SearchSpace s(timing());
    return s;
}

} // namespace

// --- SearchSpace ---------------------------------------------------------

TEST(SearchSpace, InitialConfigIsLegal)
{
    const CoreConfig cfg = space().initialConfig();
    EXPECT_EQ(cfg.checkFits(timing()), "");
}

TEST(SearchSpace, NeighborsAreLegalAndDifferent)
{
    Rng rng(21);
    CoreConfig current = space().initialConfig();
    int produced = 0;
    for (int i = 0; i < 300; ++i) {
        CoreConfig next;
        if (!space().neighbor(current, rng, next))
            continue;
        ++produced;
        ASSERT_EQ(next.checkFits(timing()), "") << next.summary();
        ASSERT_FALSE(next.sameArch(current));
        current = next;
    }
    EXPECT_GT(produced, 200);
}

TEST(SearchSpace, NeighborsRespectBounds)
{
    ExploreBounds bounds;
    bounds.minClockNs = 0.25;
    bounds.maxClockNs = 0.40;
    bounds.maxL2CapacityBytes = 1ULL << 20;
    const SearchSpace tight(timing(), bounds);
    Rng rng(22);
    CoreConfig current = tight.initialConfig();
    for (int i = 0; i < 200; ++i) {
        CoreConfig next;
        if (!tight.neighbor(current, rng, next))
            continue;
        ASSERT_GE(next.clockNs, bounds.minClockNs - 1e-9);
        ASSERT_LE(next.clockNs, bounds.maxClockNs + 1e-9);
        ASSERT_LE(next.l2CapacityBytes(), bounds.maxL2CapacityBytes);
        ASSERT_LE(next.schedDepth, bounds.maxSchedDepth);
        current = next;
    }
}

TEST(SearchSpace, RefitShrinksOversizedWindows)
{
    Rng rng(23);
    CoreConfig cfg = space().initialConfig();
    cfg.clockNs = 0.15; // much faster clock: old sizes no longer fit
    cfg.schedDepth = 2; // a 1-stage scheduler is impossible at 0.15ns
    ASSERT_TRUE(space().refit(cfg, rng));
    EXPECT_EQ(cfg.checkFits(timing()), "");
}

TEST(SearchSpace, RefitKeepsFittingCacheGeometry)
{
    Rng rng(24);
    CoreConfig cfg = space().initialConfig();
    const uint64_t l1_sets = cfg.l1Sets;
    cfg.clockNs *= 1.05; // slower clock: everything still fits
    ASSERT_TRUE(space().refit(cfg, rng));
    EXPECT_EQ(cfg.l1Sets, l1_sets);
}

TEST(SearchSpace, RandomConfigsAreLegal)
{
    Rng rng(25);
    for (int i = 0; i < 50; ++i) {
        const CoreConfig cfg = space().randomConfig(rng);
        ASSERT_EQ(cfg.checkFits(timing()), "") << cfg.summary();
    }
}

TEST(SearchSpace, ClockMoveRefitsWindowSizes)
{
    // At a very fast clock the maximal IQ must be smaller than at a
    // slow clock (the Figure-2 coupling, exercised through moves).
    Rng rng(26);
    uint32_t fast_iq = 0, slow_iq = 0;
    for (int i = 0; i < 64; ++i) {
        CoreConfig fast = space().initialConfig();
        fast.clockNs = 0.16;
        if (space().refit(fast, rng))
            fast_iq = std::max(fast_iq, fast.iqSize);
        CoreConfig slow = space().initialConfig();
        slow.clockNs = 0.6;
        if (space().refit(slow, rng))
            slow_iq = std::max(slow_iq, slow.iqSize);
    }
    EXPECT_GT(slow_iq, fast_iq);
}

TEST(SearchSpaceDeathTest, RejectsBadBounds)
{
    ExploreBounds bounds;
    bounds.minClockNs = 0.01; // below latch latency
    EXPECT_EXIT(SearchSpace(timing(), bounds),
                testing::ExitedWithCode(1), "latch");
}

// --- Annealer --------------------------------------------------------------

TEST(Annealer, ImprovesAnalyticObjective)
{
    // Objective: prefer big ROBs and slow clocks; the annealer should
    // find a configuration much better than the start.
    AnnealParams params;
    params.iterations = 400;
    params.seed = 3;
    const auto objective = [](const CoreConfig &cfg) {
        return std::log2(static_cast<double>(cfg.robSize)) +
               2.0 * cfg.clockNs;
    };
    Annealer annealer(space(), objective, params);
    const CoreConfig start = space().initialConfig();
    const AnnealResult res = annealer.run(start);
    EXPECT_GT(res.bestScore, objective(start) + 1.0);
    EXPECT_EQ(res.best.checkFits(timing()), "");
}

TEST(Annealer, DeterministicForSeed)
{
    AnnealParams params;
    params.iterations = 100;
    params.seed = 17;
    const auto objective = [](const CoreConfig &cfg) {
        return 1.0 / cfg.clockNs +
               static_cast<double>(cfg.iqSize) / 64.0;
    };
    Annealer a(space(), objective, params);
    Annealer b(space(), objective, params);
    const CoreConfig start = space().initialConfig();
    const AnnealResult ra = a.run(start);
    const AnnealResult rb = b.run(start);
    EXPECT_EQ(ra.bestScore, rb.bestScore);
    EXPECT_TRUE(ra.best.sameArch(rb.best));
    EXPECT_EQ(ra.evaluations, rb.evaluations);
}

TEST(Annealer, ImprovementTraceIsMonotone)
{
    AnnealParams params;
    params.iterations = 200;
    params.seed = 5;
    Annealer annealer(
        space(),
        [](const CoreConfig &cfg) {
            return static_cast<double>(cfg.robSize) + cfg.width;
        },
        params);
    const AnnealResult res = annealer.run(space().initialConfig());
    for (size_t i = 1; i < res.improvementTrace.size(); ++i) {
        EXPECT_GT(res.improvementTrace[i].second,
                  res.improvementTrace[i - 1].second);
        EXPECT_GE(res.improvementTrace[i].first,
                  res.improvementTrace[i - 1].first);
    }
}

TEST(Annealer, CountsEvaluations)
{
    AnnealParams params;
    params.iterations = 50;
    Annealer annealer(
        space(), [](const CoreConfig &) { return 1.0; }, params);
    const AnnealResult res = annealer.run(space().initialConfig());
    EXPECT_GE(res.evaluations, 2u);
    EXPECT_LE(res.evaluations, params.iterations + 1);
}

TEST(AnnealerDeathTest, RejectsBadSchedule)
{
    AnnealParams params;
    params.initialTemp = 0.01;
    params.finalTemp = 0.1; // final > initial
    EXPECT_EXIT(Annealer(space(),
                         [](const CoreConfig &) { return 1.0; },
                         params),
                testing::ExitedWithCode(1), "temperature");
}

TEST(AnnealerDeathTest, RejectsZeroIterations)
{
    AnnealParams params;
    params.iterations = 0;
    EXPECT_EXIT(Annealer(space(),
                         [](const CoreConfig &) { return 1.0; },
                         params),
                testing::ExitedWithCode(1), "zero iterations");
}

// --- Explorer (small end-to-end budgets) -----------------------------------

TEST(Explorer, ProducesLegalNamedConfigs)
{
    std::vector<WorkloadProfile> suite{profileByName("gzip"),
                                       profileByName("crafty")};
    ExplorerOptions opts;
    opts.evalInstrs = 8000;
    opts.saIters = 30;
    opts.rounds = 1;
    opts.threads = 2;
    Explorer explorer(suite, opts);
    const auto results = explorer.exploreAll();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].workload, "gzip");
    EXPECT_EQ(results[1].workload, "crafty");
    for (const auto &r : results) {
        EXPECT_EQ(r.best.name, r.workload);
        EXPECT_EQ(r.best.checkFits(timing()), "");
        EXPECT_GT(r.bestIpt, 0.0);
        EXPECT_GT(r.evaluations, 0u);
    }
}

TEST(Explorer, ImprovesOverInitialConfig)
{
    std::vector<WorkloadProfile> suite{profileByName("perl")};
    ExplorerOptions opts;
    opts.evalInstrs = 10000;
    opts.saIters = 60;
    opts.rounds = 1;
    opts.threads = 1;
    Explorer explorer(suite, opts);
    const double initial_ipt = Explorer::evaluate(
        profileByName("perl"), explorer.space().initialConfig(),
        opts.evalInstrs);
    const auto results = explorer.exploreAll();
    EXPECT_GE(results[0].bestIpt, initial_ipt);
}

TEST(Explorer, DeterministicForSeed)
{
    std::vector<WorkloadProfile> suite{profileByName("gap")};
    ExplorerOptions opts;
    opts.evalInstrs = 6000;
    opts.saIters = 25;
    opts.rounds = 1;
    opts.threads = 1;
    opts.seed = 42;
    const auto a = Explorer(suite, opts).exploreAll();
    const auto b = Explorer(suite, opts).exploreAll();
    EXPECT_TRUE(a[0].best.sameArch(b[0].best));
    EXPECT_EQ(a[0].bestIpt, b[0].bestIpt);
}

TEST(ExplorerDeathTest, RejectsEmptySuite)
{
    EXPECT_EXIT(Explorer({}, ExplorerOptions{}),
                testing::ExitedWithCode(1), "empty");
}

// --- thread count ----------------------------------------------------------

namespace
{

ExplorerOptions
miniOpts(uint64_t seed)
{
    ExplorerOptions opts;
    opts.evalInstrs = 4000;
    opts.saIters = 24;
    opts.rounds = 2;
    opts.threads = 1;
    opts.seed = seed;
    opts.finalEvalInstrs = 8000;
    return opts;
}

std::string
freshDir(const std::string &tag)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("xps_explore_" + tag + "_" +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

void
expectResultsIdentical(const std::vector<WorkloadResult> &a,
                       const std::vector<WorkloadResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_TRUE(a[i].best.sameArch(b[i].best))
            << a[i].best.summary() << " vs " << b[i].best.summary();
        EXPECT_EQ(a[i].bestIpt, b[i].bestIpt); // bit-identical
        EXPECT_EQ(a[i].evaluations, b[i].evaluations);
        EXPECT_EQ(a[i].adoptions, b[i].adoptions);
    }
}

} // namespace

TEST(Explorer, ThreadCountChangesNoResultAndNoCheckpointByte)
{
    // Annealing, the adoption prefetch and the final-pass prefetch all
    // run on the pool; every decision and every checkpoint byte must
    // be the serial run's.
    const std::vector<WorkloadProfile> suite = {
        profileByName("gzip"), profileByName("mcf"),
        profileByName("gcc"), profileByName("twolf")};
    // Checkpoint contents by file name, in write order per file (each
    // file has one writer at a time, so that order is deterministic).
    using Writes = std::map<std::string, std::vector<std::string>>;
    auto run = [&](int threads, Writes &writes) {
        clearCells();
        const std::string dir =
            freshDir("threads" + std::to_string(threads));
        ExplorerOptions opts = miniOpts(9);
        opts.threads = threads;
        opts.checkpointEvery = 4;
        opts.checkpointDir = dir;
        std::mutex mutex;
        opts.checkpointWrittenHook = [&](const std::string &path) {
            std::string content;
            EXPECT_TRUE(readFile(path, content)) << path;
            std::lock_guard<std::mutex> lock(mutex);
            writes[std::filesystem::path(path).filename().string()]
                .push_back(content);
        };
        const auto results = Explorer(suite, opts).exploreAll();
        std::filesystem::remove_all(dir);
        return results;
    };
    Writes serial_writes, pooled_writes;
    const auto serial = run(1, serial_writes);
    const auto pooled = run(3, pooled_writes);
    expectResultsIdentical(pooled, serial);
    EXPECT_EQ(serial_writes.size(), suite.size() + 1); // + suite.ckpt
    EXPECT_TRUE(pooled_writes == serial_writes);

    std::vector<CoreConfig> configs;
    for (const WorkloadResult &r : serial)
        configs.push_back(r.best);
    clearCells();
    const PerfMatrix one = PerfMatrix::build(suite, configs, 8000, 1);
    clearCells();
    const PerfMatrix three = PerfMatrix::build(suite, configs, 8000, 3);
    for (size_t w = 0; w < suite.size(); ++w) {
        for (size_t c = 0; c < suite.size(); ++c)
            EXPECT_EQ(one.ipt(w, c), three.ipt(w, c))
                << "cell (" << w << ", " << c << ")";
    }
}
