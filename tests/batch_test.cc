/**
 * @file
 * Referee tests for the batched simulation path (sim/batch.hh,
 * DESIGN.md §11). The central claim under test: batching changes the
 * *schedule* of simulation work — shared decode, shared warmup,
 * sequential lanes, screening — but never a single simulated bit.
 * Every SimStats field of a full-fidelity batched lane must equal the
 * scalar simulate() result exactly, on every golden workload, for
 * every batch width the annealer uses.
 */

#include <gtest/gtest.h>

#include <vector>

#include "explore/annealer.hh"
#include "explore/search_space.hh"
#include "sim/batch.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "workload/profile.hh"
#include "workload/trace.hh"

using namespace xps;

namespace
{

constexpr uint64_t kInstrs = 5000; // measure == warmup

/** The batch widths XPS_BATCH is exercised at (1 = degenerate). */
const uint32_t kWidths[] = {1, 2, 8};

/** Initial config plus distinct annealing neighbours: the exact kind
 *  of frontier a batched annealing round proposes. */
std::vector<CoreConfig>
frontierConfigs(size_t count, uint64_t seed)
{
    static const UnitTiming timing;
    static const SearchSpace space(timing);
    std::vector<CoreConfig> configs{CoreConfig::initial()};
    Rng rng(seed);
    while (configs.size() < count) {
        CoreConfig cand;
        if (!space.neighbor(configs.back(), rng, cand))
            continue;
        bool dup = false;
        for (const CoreConfig &c : configs)
            dup = dup || configFingerprint(c) == configFingerprint(cand);
        if (!dup)
            configs.push_back(cand);
    }
    return configs;
}

SimStats
scalarRun(const WorkloadProfile &profile, const CoreConfig &cfg,
          const std::shared_ptr<const TraceBuffer> &trace)
{
    SimOptions opts;
    opts.measureInstrs = kInstrs;
    opts.trace = trace;
    return simulate(profile, cfg, opts);
}

void
expectStatsEqual(const SimStats &a, const SimStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.clockNs, b.clockNs) << what;
    EXPECT_EQ(a.condBranches, b.condBranches) << what;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.stores, b.stores) << what;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.robOccupancySum, b.robOccupancySum) << what;
}

} // namespace

// Batched full-fidelity evaluation is bit-identical to scalar
// simulate() on every golden workload, at every annealer batch width.
TEST(BatchSimulator, BitIdenticalToScalarOnAllGoldenWorkloads)
{
    const std::vector<CoreConfig> configs = frontierConfigs(8, 11);
    for (const WorkloadProfile &profile : spec2000int()) {
        const auto trace = sharedTrace(profile, 0, 2 * kInstrs);
        std::vector<SimStats> scalar;
        scalar.reserve(configs.size());
        for (const CoreConfig &cfg : configs)
            scalar.push_back(scalarRun(profile, cfg, trace));

        for (const uint32_t width : kWidths) {
            BatchOptions opts;
            opts.measureInstrs = kInstrs;
            BatchSimulator sim(trace, opts);
            for (size_t base = 0; base < configs.size();
                 base += width) {
                const size_t end =
                    std::min(configs.size(),
                             base + static_cast<size_t>(width));
                const std::vector<CoreConfig> batch(
                    configs.begin() + static_cast<long>(base),
                    configs.begin() + static_cast<long>(end));
                const std::vector<SimStats> stats =
                    sim.evaluate(batch);
                ASSERT_EQ(stats.size(), batch.size());
                for (size_t i = 0; i < batch.size(); ++i) {
                    expectStatsEqual(
                        stats[i], scalar[base + i],
                        profile.name + " width " +
                            std::to_string(width) + " config " +
                            std::to_string(base + i));
                }
            }
        }
    }
}

// Screening prunes lanes but never distorts survivors: every
// full-flagged result equals the scalar run; pruned lanes stopped
// before the end of the window.
TEST(BatchSimulator, ScreenSurvivorsBitIdenticalPrunedPartial)
{
    const WorkloadProfile &profile = spec2000int()[0];
    const auto trace = sharedTrace(profile, 0, 2 * kInstrs);
    const std::vector<CoreConfig> configs = frontierConfigs(8, 23);

    BatchOptions opts;
    opts.measureInstrs = kInstrs;
    BatchSimulator sim(trace, opts);
    const ScreenOutcome outcome =
        sim.screen(configs, BatchSimulator::defaultCuts(8));
    ASSERT_EQ(outcome.full.size(), configs.size());
    ASSERT_EQ(outcome.stats.size(), configs.size());

    size_t survivors = 0;
    size_t pruned = 0;
    for (size_t i = 0; i < configs.size(); ++i) {
        if (outcome.full[i]) {
            ++survivors;
            expectStatsEqual(outcome.stats[i],
                             scalarRun(profile, configs[i], trace),
                             "survivor " + std::to_string(i));
        } else {
            ++pruned;
            EXPECT_LT(outcome.stats[i].instructions, kInstrs)
                << "pruned lane " << i
                << " should have stopped at a cut";
        }
    }
    EXPECT_GE(survivors, 1u);
    // defaultCuts(8) keeps 2 past the first cut and 1 past the
    // second, so at least 6 of 8 distinct configs are pruned.
    EXPECT_GE(pruned, 6u);
}

// Duplicate configs share one lane; revisited configs are memo hits.
TEST(BatchSimulator, DuplicatesAndMemoShareResults)
{
    const WorkloadProfile &profile = spec2000int()[0];
    const auto trace = sharedTrace(profile, 0, 2 * kInstrs);
    const std::vector<CoreConfig> distinct = frontierConfigs(2, 7);

    BatchOptions opts;
    opts.measureInstrs = kInstrs;
    BatchSimulator sim(trace, opts);
    const std::vector<CoreConfig> batch{distinct[0], distinct[1],
                                        distinct[0]};
    const std::vector<SimStats> first = sim.evaluate(batch);
    expectStatsEqual(first[0], first[2], "duplicate lanes");
    EXPECT_EQ(sim.memoHits(), 0u);

    const std::vector<SimStats> again = sim.evaluate(batch);
    EXPECT_EQ(sim.memoHits(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
        expectStatsEqual(first[i], again[i], "memo replay");
}

// The frontier walk at width 1 with no screening is the scalar walk:
// same RNG consumption order, same decisions, same incumbent.
TEST(Annealer, FrontierWidthOneMatchesScalar)
{
    static const UnitTiming timing;
    static const SearchSpace space(timing);
    // Analytic objective: deterministic, fast, with real structure.
    const auto objective = [](const CoreConfig &c) {
        return static_cast<double>(c.width) / c.clockNs +
               0.01 * static_cast<double>(c.robSize) -
               0.001 * static_cast<double>(c.l1Cycles + c.l2Cycles);
    };
    AnnealParams params;
    params.iterations = 120;
    params.seed = 99;

    const Annealer scalar(space, objective, params);
    const AnnealResult a = scalar.run(CoreConfig::initial());

    Annealer frontier(space, objective, params);
    frontier.setFrontier(
        [&](const std::vector<CoreConfig> &cands,
            std::vector<double> &scores, std::vector<uint8_t> &full) {
            scores.clear();
            full.clear();
            for (const CoreConfig &c : cands) {
                scores.push_back(objective(c));
                full.push_back(kScreenFull);
            }
        },
        1);
    const AnnealResult b = frontier.run(CoreConfig::initial());

    EXPECT_EQ(a.bestScore, b.bestScore);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(configFingerprint(a.best), configFingerprint(b.best));
    EXPECT_EQ(a.improvementTrace, b.improvementTrace);
}

// Wider frontiers still finish the full schedule and never worsen the
// incumbent relative to the start (sanity on the multiple-try walk).
TEST(Annealer, FrontierWidthEightRunsFullSchedule)
{
    static const UnitTiming timing;
    static const SearchSpace space(timing);
    const auto objective = [](const CoreConfig &c) {
        return static_cast<double>(c.width) / c.clockNs;
    };
    AnnealParams params;
    params.iterations = 100;
    params.seed = 5;
    Annealer annealer(space, objective, params);
    uint64_t calls = 0;
    annealer.setFrontier(
        [&](const std::vector<CoreConfig> &cands,
            std::vector<double> &scores, std::vector<uint8_t> &full) {
            ++calls;
            EXPECT_LE(cands.size(), 8u);
            scores.assign(cands.size(), 0.0);
            full.assign(cands.size(), kScreenPartial);
            for (size_t i = 0; i < cands.size(); ++i) {
                scores[i] = objective(cands[i]);
                // Screen out every other candidate: auto-rejects
                // must not derail the walk or the schedule length.
                full[i] = i % 2 == 0 ? kScreenFull : kScreenPartial;
            }
        },
        8);
    const AnnealResult r = annealer.run(CoreConfig::initial());
    EXPECT_GE(calls, params.iterations / 8);
    EXPECT_GE(r.bestScore,
              objective(CoreConfig::initial()));
}

// Degenerate screening width: a frontier of one lane with an explicit
// cut schedule. keep >= lanes at every cut means the lone lane can
// never be pruned — it must come back full fidelity, bit-identical to
// the scalar run.
TEST(BatchSimulator, ScreenWidthOneWithExplicitCut)
{
    const WorkloadProfile &profile = spec2000int()[0];
    const auto trace = sharedTrace(profile, 0, 2 * kInstrs);
    const std::vector<CoreConfig> one = frontierConfigs(1, 31);

    BatchOptions opts;
    opts.measureInstrs = kInstrs;
    BatchSimulator sim(trace, opts);
    // defaultCuts(8) keeps 2 then 1 — both >= the single lane.
    const ScreenOutcome outcome =
        sim.screen(one, BatchSimulator::defaultCuts(8));
    ASSERT_EQ(outcome.full.size(), 1u);
    EXPECT_TRUE(outcome.full[0]);
    expectStatsEqual(outcome.stats[0],
                     scalarRun(profile, one[0], trace),
                     "lone screened lane");
    // And the no-cut schedule of width 1 degenerates to evaluate().
    EXPECT_TRUE(BatchSimulator::defaultCuts(1).empty());
}

// A cut schedule computed for a wide frontier applied to fewer
// proposals than the width (the annealer's last round of a schedule
// is usually short): survivors are still full fidelity and
// bit-identical, pruned lanes still stop early.
TEST(BatchSimulator, ScreenFrontierLargerThanRemainingProposals)
{
    const WorkloadProfile &profile = spec2000int()[0];
    const auto trace = sharedTrace(profile, 0, 2 * kInstrs);
    const std::vector<CoreConfig> configs = frontierConfigs(3, 47);

    BatchOptions opts;
    opts.measureInstrs = kInstrs;
    BatchSimulator sim(trace, opts);
    const ScreenOutcome outcome =
        sim.screen(configs, BatchSimulator::defaultCuts(8));
    ASSERT_EQ(outcome.full.size(), configs.size());
    size_t survivors = 0;
    for (size_t i = 0; i < configs.size(); ++i) {
        if (outcome.full[i]) {
            ++survivors;
            expectStatsEqual(outcome.stats[i],
                             scalarRun(profile, configs[i], trace),
                             "short-frontier survivor " +
                                 std::to_string(i));
        } else {
            EXPECT_LT(outcome.stats[i].instructions, kInstrs)
                << "pruned lane " << i;
        }
    }
    EXPECT_GE(survivors, 1u);
}

// Warmup sharing via MemoryHierarchy::adoptState must not leak state
// into the result memo: after lane B adopts the memoized post-warmup
// hierarchy of lane A's geometry, a revisit of A is a memo hit with
// stats still bit-identical to the scalar run.
TEST(BatchSimulator, MemoHitAfterAdoptStateReuse)
{
    const WorkloadProfile &profile = spec2000int()[0];
    const auto trace = sharedTrace(profile, 0, 2 * kInstrs);
    const CoreConfig a = CoreConfig::initial();
    CoreConfig b = a; // same cache geometry, different core params
    // Shrink the window rather than grow it: smaller structures are
    // strictly faster, so b stays legal for any timing model that
    // admits a.
    b.robSize = a.robSize / 2;
    b.iqSize = a.iqSize / 2;
    ASSERT_GE(b.robSize, b.width);
    ASSERT_GE(b.iqSize, b.width);
    ASSERT_FALSE(b.sameArch(a));

    BatchOptions opts;
    opts.measureInstrs = kInstrs;
    BatchSimulator sim(trace, opts);
    const std::vector<SimStats> first = sim.evaluate({a});
    EXPECT_EQ(sim.memoHits(), 0u);

    const std::vector<SimStats> second = sim.evaluate({b, a});
    EXPECT_EQ(sim.memoHits(), 1u) << "revisited config must memo-hit";
    expectStatsEqual(second[1], first[0], "memo replay of A");
    expectStatsEqual(first[0], scalarRun(profile, a, trace),
                     "A vs scalar");
    expectStatsEqual(second[0], scalarRun(profile, b, trace),
                     "B (adopted warm state) vs scalar");
}
