/**
 * @file
 * The cell memo (src/sim/cells.hh, DESIGN.md §6): a hit returns the
 * stats simulate() returns, the trace stays out of the key, checked
 * runs bypass it, prefetch fills it once per distinct cell at any
 * thread count — and the work counts it buys on a mini pipeline are
 * gated exactly: the matrix over the explorer's customized configs
 * simulates nothing, duplicate columns simulate once, and the
 * explorer's evaluation count is unchanged.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "comm/perf_matrix.hh"
#include "explore/explorer.hh"
#include "explore/search_space.hh"
#include "sim/cells.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

using namespace xps;

namespace
{

uint64_t
counter(const char *name)
{
    return Metrics::global().counter(name).get();
}

uint64_t
simRuns()
{
    return Metrics::global().histogram("sim.run").count();
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.clockNs, b.clockNs);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.robOccupancySum, b.robOccupancySum);
}

SimOptions
shortRun(uint64_t instrs = 3000)
{
    SimOptions opts;
    opts.measureInstrs = instrs;
    return opts;
}

/** A legal configuration other than the initial one. */
CoreConfig
otherConfig()
{
    const UnitTiming timing;
    const SearchSpace space(timing);
    Rng rng(4242);
    CoreConfig cfg = space.randomConfig(rng);
    cfg.name = "other";
    return cfg;
}

} // namespace

TEST(CellMemo, HitReturnsTheSimulatedStats)
{
    clearCells();
    const WorkloadProfile &gzip = profileByName("gzip");
    const CoreConfig cfg = CoreConfig::initial();
    const SimStats direct = simulate(gzip, cfg, shortRun());

    const uint64_t hits = counter("cells.hits");
    const uint64_t misses = counter("cells.misses");
    expectSameStats(simulateCell(gzip, cfg, shortRun()), direct);
    // The config name is not part of the key: only the architecture
    // counts.
    CoreConfig renamed = cfg;
    renamed.name = "other";
    expectSameStats(simulateCell(gzip, renamed, shortRun()), direct);
    EXPECT_EQ(counter("cells.misses") - misses, 1u);
    EXPECT_EQ(counter("cells.hits") - hits, 1u);
}

TEST(CellMemo, KeySeparatesWindowStreamAndWorkload)
{
    clearCells();
    const WorkloadProfile &gzip = profileByName("gzip");
    const CoreConfig cfg = CoreConfig::initial();
    simulateCell(gzip, cfg, shortRun());

    const uint64_t misses = counter("cells.misses");
    SimOptions longer = shortRun(4000);
    SimOptions warmer = shortRun();
    warmer.warmupInstrs = 1000;
    SimOptions stream = shortRun();
    stream.streamId = 1;
    expectSameStats(simulateCell(gzip, cfg, longer),
                    simulate(gzip, cfg, longer));
    expectSameStats(simulateCell(gzip, cfg, warmer),
                    simulate(gzip, cfg, warmer));
    expectSameStats(simulateCell(gzip, cfg, stream),
                    simulate(gzip, cfg, stream));
    const WorkloadProfile &mcf = profileByName("mcf");
    expectSameStats(simulateCell(mcf, cfg, shortRun()),
                    simulate(mcf, cfg, shortRun()));
    expectSameStats(simulateCell(gzip, otherConfig(), shortRun()),
                    simulate(gzip, otherConfig(), shortRun()));
    EXPECT_EQ(counter("cells.misses") - misses, 5u);
}

TEST(CellMemo, CheckedRunsBypassTheMemo)
{
    clearCells();
    const WorkloadProfile &gzip = profileByName("gzip");
    SimOptions checked = shortRun();
    checked.check = true;
    const uint64_t lookups =
        counter("cells.hits") + counter("cells.misses");
    const uint64_t runs = simRuns();
    simulateCell(gzip, CoreConfig::initial(), checked);
    simulateCell(gzip, CoreConfig::initial(), checked);
    prefetchCells({{gzip, CoreConfig::initial(), checked}}, 2);
    EXPECT_EQ(counter("cells.hits") + counter("cells.misses"), lookups);
    EXPECT_EQ(simRuns() - runs, 2u);
}

TEST(CellMemo, PrefetchSimulatesEachDistinctCellOnceAtAnyWidth)
{
    const std::vector<WorkloadProfile> suite = {profileByName("gzip"),
                                                profileByName("mcf"),
                                                profileByName("gcc")};
    std::vector<Cell> cells;
    const std::vector<CoreConfig> configs = {
        CoreConfig::initial(), otherConfig(), CoreConfig::initial()};
    for (const WorkloadProfile &p : suite) {
        for (const CoreConfig &cfg : configs)
            cells.push_back({p, cfg, shortRun()});
    }
    std::vector<std::vector<SimStats>> byWidth;
    for (int threads : {1, 3}) {
        clearCells();
        const uint64_t runs = simRuns();
        prefetchCells(cells, threads);
        EXPECT_EQ(simRuns() - runs, 6u) << threads << " threads";
        prefetchCells(cells, threads); // all present: no work
        EXPECT_EQ(simRuns() - runs, 6u) << threads << " threads";
        std::vector<SimStats> stats;
        for (const Cell &cell : cells)
            stats.push_back(
                simulateCell(cell.profile, cell.config, cell.opts));
        EXPECT_EQ(simRuns() - runs, 6u) << threads << " threads";
        byWidth.push_back(stats);
    }
    for (size_t i = 0; i < cells.size(); ++i)
        expectSameStats(byWidth[0][i], byWidth[1][i]);
}

// --- exact work counts on a mini pipeline -------------------------------

namespace
{

std::vector<WorkloadProfile>
miniSuite()
{
    return {profileByName("gzip"), profileByName("mcf"),
            profileByName("gcc")};
}

ExplorerOptions
miniOpts()
{
    ExplorerOptions opts;
    opts.evalInstrs = 2000;
    opts.saIters = 12;
    opts.rounds = 2;
    opts.threads = 2;
    opts.seed = 7;
    opts.finalEvalInstrs = 4000;
    return opts;
}

} // namespace

TEST(CellWork, MatrixOverExploredConfigsSimulatesNothing)
{
    clearCells();
    const ExplorerOptions opts = miniOpts();
    std::vector<CoreConfig> configs;
    uint64_t evaluations = 0;
    for (const WorkloadResult &r :
         Explorer(miniSuite(), opts).exploreAll()) {
        configs.push_back(r.best);
        evaluations += r.evaluations;
    }
    // The count the explorer reported before the memo existed: the
    // memo moves cells between threads, never adds or drops one.
    EXPECT_EQ(evaluations, 49u);

    const uint64_t runs = simRuns();
    const uint64_t computed = counter("perf_matrix.cells_computed");
    const PerfMatrix matrix =
        PerfMatrix::build(miniSuite(), configs, opts.finalEvalInstrs, 2);
    EXPECT_EQ(simRuns() - runs, 0u);
    EXPECT_EQ(counter("perf_matrix.cells_computed") - computed, 9u);
    for (size_t w = 0; w < matrix.size(); ++w)
        EXPECT_GT(matrix.ownIpt(w), 0.0);
}

TEST(CellWork, DuplicateColumnsSimulateOnce)
{
    clearCells();
    const std::vector<WorkloadProfile> suite = miniSuite();
    // gcc's column is gzip's architecture under another name.
    std::vector<CoreConfig> configs = {CoreConfig::initial(),
                                       otherConfig(),
                                       CoreConfig::initial()};
    configs[2].name = "gcc";
    const uint64_t runs = simRuns();
    const PerfMatrix matrix = PerfMatrix::build(suite, configs, 3000, 3);
    EXPECT_EQ(simRuns() - runs, 6u); // 3 workloads x 2 architectures
    for (size_t w = 0; w < suite.size(); ++w)
        EXPECT_EQ(matrix.ipt(w, 0), matrix.ipt(w, 2));
}
