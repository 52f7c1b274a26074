/**
 * @file
 * Unit and property tests for src/sim: configuration validation and
 * derived parameters, the cache hierarchy (LRU, inclusion, fill
 * bandwidth), and the out-of-order core's first-order behaviours —
 * the monotonicities the design-space exploration depends on.
 */

#include <gtest/gtest.h>

#include "sim/area_power.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/ooo_core.hh"
#include "sim/simulator.hh"
#include "workload/branch_predictor.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workload/trace.hh"

using namespace xps;

namespace
{

const UnitTiming &
timing()
{
    static const UnitTiming t;
    return t;
}

/** A mid-sized legal reference configuration for behaviour tests. */
CoreConfig
referenceConfig()
{
    CoreConfig cfg = CoreConfig::initial();
    cfg.name = "ref";
    cfg.width = 4;
    cfg.robSize = 256;
    cfg.iqSize = 64;
    cfg.lsqSize = 128;
    cfg.schedDepth = 2;
    cfg.l1Sets = 512;
    cfg.l1Assoc = 2;
    cfg.l1LineBytes = 64;
    cfg.l1Cycles = 4;
    cfg.l2Sets = 2048;
    cfg.l2Assoc = 4;
    cfg.l2LineBytes = 128;
    cfg.l2Cycles = 13;
    return cfg;
}

SimStats
quickSim(const char *workload, const CoreConfig &cfg,
         uint64_t instrs = 40000)
{
    SimOptions opts;
    opts.measureInstrs = instrs;
    return simulate(profileByName(workload), cfg, opts);
}

} // namespace

// --- CoreConfig -------------------------------------------------------------

TEST(CoreConfig, InitialIsLegal)
{
    EXPECT_EQ(CoreConfig::initial().checkFits(timing()), "");
}

TEST(CoreConfig, ReferenceIsLegal)
{
    EXPECT_EQ(referenceConfig().checkFits(timing()), "");
}

TEST(CoreConfig, FrontEndStagesScaleWithClock)
{
    CoreConfig fast = CoreConfig::initial();
    fast.clockNs = 0.2;
    CoreConfig slow = CoreConfig::initial();
    slow.clockNs = 0.5;
    const Technology &tech = Technology::defaultTech();
    EXPECT_GT(fast.frontEndStages(tech), slow.frontEndStages(tech));
    EXPECT_GE(slow.frontEndStages(tech), 2);
}

TEST(CoreConfig, MemCyclesScaleWithClock)
{
    CoreConfig cfg = CoreConfig::initial();
    const Technology &tech = Technology::defaultTech();
    cfg.clockNs = 0.5;
    EXPECT_EQ(cfg.memCycles(tech), 100);
    cfg.clockNs = 0.25;
    EXPECT_EQ(cfg.memCycles(tech), 200);
}

TEST(CoreConfig, AwakenLatencyFollowsSchedulerDepth)
{
    CoreConfig cfg = CoreConfig::initial();
    cfg.schedDepth = 1;
    EXPECT_EQ(cfg.awakenLatency(), 0);
    cfg.schedDepth = 3;
    EXPECT_EQ(cfg.awakenLatency(), 2);
}

TEST(CoreConfig, CapacityArithmetic)
{
    const CoreConfig cfg = referenceConfig();
    EXPECT_EQ(cfg.l1CapacityBytes(), 512u * 2 * 64);
    EXPECT_EQ(cfg.l2CapacityBytes(), 2048u * 4 * 128);
}

TEST(CoreConfig, CheckFitsDetectsOversizedIq)
{
    CoreConfig cfg = referenceConfig();
    cfg.iqSize = 256;
    cfg.schedDepth = 1;
    cfg.clockNs = 0.15;
    EXPECT_NE(cfg.checkFits(timing()), "");
}

TEST(CoreConfig, CheckFitsDetectsOversizedL1)
{
    CoreConfig cfg = referenceConfig();
    cfg.l1Sets = 32768;
    cfg.l1Assoc = 8;
    cfg.l1Cycles = 1;
    EXPECT_NE(cfg.checkFits(timing()), "");
}

TEST(CoreConfig, CheckFitsDetectsL2SmallerThanL1)
{
    CoreConfig cfg = referenceConfig();
    cfg.l2Sets = 64;
    cfg.l2Assoc = 1;
    cfg.l2LineBytes = 64;
    EXPECT_NE(cfg.checkFits(timing()), "");
}

TEST(CoreConfig, CsvRoundTrip)
{
    const CoreConfig cfg = referenceConfig();
    const auto row = cfg.toCsvRow();
    const CoreConfig back =
        CoreConfig::fromCsvRow(CoreConfig::csvHeader(), row);
    EXPECT_TRUE(back.sameArch(cfg));
    EXPECT_EQ(back.name, cfg.name);
}

TEST(CoreConfig, SameArchIgnoresName)
{
    CoreConfig a = referenceConfig();
    CoreConfig b = referenceConfig();
    b.name = "other";
    EXPECT_TRUE(a.sameArch(b));
    b.robSize = 512;
    EXPECT_FALSE(a.sameArch(b));
}

TEST(CoreConfig, SummaryMentionsKeyParameters)
{
    const std::string s = referenceConfig().summary();
    EXPECT_NE(s.find("rob=256"), std::string::npos);
    EXPECT_NE(s.find("L1=64K"), std::string::npos);
}

TEST(CoreConfigDeathTest, ValidateFatalOnIllegal)
{
    CoreConfig cfg = referenceConfig();
    cfg.width = 0;
    EXPECT_EXIT(cfg.validate(timing()), testing::ExitedWithCode(1),
                "invalid configuration");
}

// --- Cache -------------------------------------------------------------------

TEST(Cache, MissThenHit)
{
    Cache cache(64, 2, 64);
    EXPECT_FALSE(cache.access(0x1000));
    cache.fill(0x1000);
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1008)); // same line
    EXPECT_FALSE(cache.access(0x1040)); // next line
}

TEST(Cache, LruEviction)
{
    Cache cache(1, 2, 64); // one set, two ways
    cache.fill(0 << 6);
    cache.fill(1 << 6);
    EXPECT_TRUE(cache.access(0 << 6)); // 0 now MRU
    cache.fill(2 << 6);                // evicts 1 (LRU)
    EXPECT_TRUE(cache.access(0 << 6));
    EXPECT_FALSE(cache.access(1 << 6));
    EXPECT_TRUE(cache.access(2 << 6));
}

TEST(Cache, SetIndexingSeparatesLines)
{
    Cache cache(4, 1, 64);
    for (uint64_t i = 0; i < 4; ++i)
        cache.fill(i << 6);
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_TRUE(cache.access(i << 6));
}

TEST(Cache, RefillOfPresentLineIsIdempotent)
{
    Cache cache(1, 2, 64);
    cache.fill(0x40);
    cache.fill(0x40);
    cache.fill(0x80);
    EXPECT_TRUE(cache.access(0x40));
    EXPECT_TRUE(cache.access(0x80));
}

TEST(Cache, ResetClearsState)
{
    Cache cache(16, 2, 32);
    cache.fill(0x100);
    cache.access(0x100);
    cache.reset();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_FALSE(cache.access(0x100));
}

TEST(Cache, MissRateAccounting)
{
    Cache cache(16, 1, 64);
    cache.access(0);      // miss
    cache.fill(0);
    cache.access(0);      // hit
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.5);
}

TEST(CacheDeathTest, RejectsNonPowerOfTwo)
{
    EXPECT_EXIT(Cache(63, 2, 64), testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(Cache(64, 2, 48), testing::ExitedWithCode(1),
                "power of two");
}

TEST(Hierarchy, LevelsAndLatencies)
{
    // L1: 8 sets x 1 x 64B; L2: 64 sets x 2 x 64B; 100-cycle memory.
    MemoryHierarchy h(8, 1, 64, 3, 64, 2, 64, 10, 100);
    MemoryHierarchy::Level level;
    const int first = h.loadLatency(0x5000, &level);
    EXPECT_EQ(level, MemoryHierarchy::Level::Memory);
    // line/32 = 2 (L1 fill) + line/16 = 4 (L2 fill) transfer cycles.
    EXPECT_EQ(first, 3 + 10 + 100 + 2 + 4);
    const int second = h.loadLatency(0x5000, &level);
    EXPECT_EQ(level, MemoryHierarchy::Level::L1);
    EXPECT_EQ(second, 3);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryHierarchy h(1, 1, 64, 2, 64, 4, 64, 8, 50);
    MemoryHierarchy::Level level;
    h.loadLatency(0x0, &level);   // memory
    h.loadLatency(0x40, &level);  // memory, evicts 0x0 from L1
    const int lat = h.loadLatency(0x0, &level);
    EXPECT_EQ(level, MemoryHierarchy::Level::L2);
    EXPECT_EQ(lat, 2 + 8 + 2); // + L1 fill transfer
}

TEST(Hierarchy, StoreTouchWarmsL1)
{
    MemoryHierarchy h(8, 1, 64, 3, 64, 2, 64, 10, 100);
    h.storeTouch(0x900);
    MemoryHierarchy::Level level;
    h.loadLatency(0x900, &level);
    EXPECT_EQ(level, MemoryHierarchy::Level::L1);
}

TEST(Hierarchy, LargerLinesPayLargerFillCost)
{
    MemoryHierarchy small(8, 1, 32, 3, 64, 2, 64, 10, 100);
    MemoryHierarchy big(8, 1, 512, 3, 64, 2, 512, 10, 100);
    // Cold miss to memory: the 512B-line hierarchy pays more.
    EXPECT_GT(big.loadLatency(0x4000), small.loadLatency(0x4000));
}

// --- OooCore behaviour --------------------------------------------------------

TEST(OooCore, DeterministicAcrossRuns)
{
    const CoreConfig cfg = referenceConfig();
    const SimStats a = quickSim("gcc", cfg);
    const SimStats b = quickSim("gcc", cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
}

TEST(OooCore, IpcWithinPhysicalBounds)
{
    for (const char *w : {"gzip", "mcf", "crafty"}) {
        const SimStats s = quickSim(w, referenceConfig());
        EXPECT_GT(s.ipc(), 0.0) << w;
        EXPECT_LE(s.ipc(), 4.0) << w; // width bound
    }
}

TEST(OooCore, IptIsIpcOverClock)
{
    const SimStats s = quickSim("gap", referenceConfig());
    EXPECT_NEAR(s.ipt(), s.ipc() / s.clockNs, 1e-12);
}

TEST(OooCore, StatsCountsMatchMix)
{
    const auto &profile = profileByName("vortex");
    const SimStats s = quickSim("vortex", referenceConfig(), 60000);
    EXPECT_EQ(s.instructions, 60000u);
    const double load_frac =
        static_cast<double>(s.loads) / s.instructions;
    const double br_frac =
        static_cast<double>(s.condBranches) / s.instructions;
    EXPECT_NEAR(load_frac, profile.fracLoad, 0.02);
    EXPECT_NEAR(br_frac, profile.fracCondBranch, 0.02);
}

TEST(OooCore, WiderCoreIsNotSlower)
{
    CoreConfig narrow = referenceConfig();
    narrow.width = 1;
    CoreConfig wide = referenceConfig();
    wide.width = 6;
    const double ipc1 = quickSim("crafty", narrow).ipc();
    const double ipc6 = quickSim("crafty", wide).ipc();
    EXPECT_GT(ipc6, ipc1 * 1.3); // high-ILP workload gains a lot
}

TEST(OooCore, LargerRobHelpsMemoryParallelWorkload)
{
    CoreConfig small = referenceConfig();
    small.robSize = 32;
    small.iqSize = 16;
    CoreConfig big = referenceConfig();
    big.robSize = 512;
    big.schedDepth = 2;
    // bzip: large working set, independent loads -> window exposes MLP.
    const double ipc_small = quickSim("bzip", small).ipc();
    const double ipc_big = quickSim("bzip", big).ipc();
    EXPECT_GT(ipc_big, ipc_small * 1.05);
}

TEST(OooCore, SlowerL1HurtsIpc)
{
    CoreConfig fast_l1 = referenceConfig();
    fast_l1.l1Cycles = 2;
    fast_l1.l1Sets = 128; // must still fit two cycles
    fast_l1.l1LineBytes = 32;
    ASSERT_EQ(fast_l1.checkFits(timing()), "");
    CoreConfig slow_l1 = fast_l1;
    slow_l1.l1Cycles = 8;
    const double fast_ipc = quickSim("gzip", fast_l1).ipc();
    const double slow_ipc = quickSim("gzip", slow_l1).ipc();
    EXPECT_GT(fast_ipc, slow_ipc * 1.02);
}

TEST(OooCore, DeeperSchedulerHurtsDependentChains)
{
    CoreConfig tight = referenceConfig();
    tight.clockNs = 0.36;
    tight.schedDepth = 1;
    tight.robSize = 128;
    tight.iqSize = 64;
    ASSERT_EQ(tight.checkFits(timing()), "");
    CoreConfig deep = tight;
    deep.schedDepth = 4;
    // gzip has dense dependence chains (mean distance 3).
    const double ipc_tight = quickSim("gzip", tight).ipc();
    const double ipc_deep = quickSim("gzip", deep).ipc();
    EXPECT_GT(ipc_tight, ipc_deep * 1.05);
}

TEST(OooCore, BiggerCachesHelpLargeWorkingSet)
{
    CoreConfig small = referenceConfig();
    small.l1Sets = 64;
    small.l1Assoc = 1;
    small.l1LineBytes = 32; // 2KB L1
    small.l2Sets = 256;
    small.l2Assoc = 2;
    small.l2LineBytes = 64; // 32KB L2
    ASSERT_EQ(small.checkFits(timing()), "");
    CoreConfig big = referenceConfig();
    big.l2Cycles = 26;
    big.l2Sets = 4096;
    big.l2Assoc = 8;
    big.l2LineBytes = 128; // 4MB L2
    ASSERT_EQ(big.checkFits(timing()), "");
    const double ipc_small = quickSim("bzip", small).ipc();
    const double ipc_big = quickSim("bzip", big).ipc();
    EXPECT_GT(ipc_big, ipc_small * 1.1);
}

TEST(OooCore, MispredictsReportedForBranchyWorkload)
{
    const SimStats s = quickSim("twolf", referenceConfig(), 60000);
    EXPECT_GT(s.condBranches, 5000u);
    EXPECT_GT(s.mispredictRate(), 0.02);
    EXPECT_LT(s.mispredictRate(), 0.40);
}

TEST(OooCore, MemoryBoundWorkloadIsMemoryBound)
{
    const SimStats s = quickSim("mcf", referenceConfig(), 30000);
    EXPECT_GT(s.l1MissRate(), 0.3);
    EXPECT_LT(s.ipc(), 0.5);
}

TEST(OooCore, CacheFriendlyWorkloadHitsL1)
{
    const SimStats s = quickSim("perl", referenceConfig(), 60000);
    EXPECT_LT(s.l1MissRate(), 0.15);
    EXPECT_GT(s.ipc(), 0.5);
}

TEST(OooCore, WarmupReducesColdMisses)
{
    SimOptions cold;
    cold.measureInstrs = 30000;
    cold.warmupInstrs = 0;
    SimOptions warm;
    warm.measureInstrs = 30000;
    warm.warmupInstrs = 200000;
    const auto &profile = profileByName("gcc");
    const SimStats c = simulate(profile, referenceConfig(), cold);
    const SimStats w = simulate(profile, referenceConfig(), warm);
    EXPECT_LT(w.l2MissRate(), c.l2MissRate());
}

TEST(OooCore, RobOccupancyBounded)
{
    const CoreConfig cfg = referenceConfig();
    const SimStats s = quickSim("gap", cfg);
    EXPECT_GT(s.avgRobOccupancy(), 1.0);
    EXPECT_LE(s.avgRobOccupancy(), cfg.robSize);
}

TEST(OooCore, ClockChangesIptNotJustIpc)
{
    // The same microarchitecture at a slower clock must lose IPT
    // unless memory-bound effects dominate; for a cache-resident
    // workload the faster clock with identical cycle counts wins.
    CoreConfig slow = referenceConfig();
    slow.clockNs = 0.5;
    const SimStats fast_s = quickSim("perl", referenceConfig());
    const SimStats slow_s = quickSim("perl", slow);
    EXPECT_GT(fast_s.ipt(), slow_s.ipt());
}

// --- the trace is the generator's stream --------------------------------------

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.clockNs, b.clockNs);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.robOccupancySum, b.robOccupancySum);
}

/**
 * A trace is the generator's stream scored by a live predictor: each
 * op equals SyntheticWorkload::next(), and each meta byte equals
 * decodeMicroOp() plus that predictor's mispredict bit.
 */
void
expectTraceIsGeneratorStream(const TraceBuffer &trace,
                             const WorkloadProfile &profile,
                             uint64_t stream_id)
{
    ASSERT_EQ(trace.meta().size(), trace.size());
    SyntheticWorkload gen(profile, stream_id);
    BranchPredictor predictor;
    for (uint64_t i = 0; i < trace.size(); ++i) {
        const MicroOp &op = gen.next();
        uint8_t meta = decodeMicroOp(op);
        if (op.cls == OpClass::CondBranch &&
            !predictor.predict(op.pc, op.taken))
            meta |= kMetaMispredict;
        ASSERT_TRUE(trace.ops()[i] == op) << "op " << i;
        ASSERT_EQ(trace.meta()[i], meta) << "meta byte " << i;
    }
}

/** A private buffer for `opts`, built the way sharedTrace() sizes its
 *  own but outside the registry. */
std::shared_ptr<const TraceBuffer>
ownTrace(const WorkloadProfile &profile, const SimOptions &opts)
{
    return std::make_shared<const TraceBuffer>(
        profile, opts.streamId, opts.traceOps() + kTraceSlackOps);
}

/** The run `opts` describes, replayed on `trace` straight through the
 *  core instead of through simulate() and the registry. */
SimStats
runOnTrace(std::shared_ptr<const TraceBuffer> trace,
           const CoreConfig &cfg, const SimOptions &opts)
{
    return OooCore(cfg).run(std::move(trace), opts.measureInstrs,
                            opts.effectiveWarmup());
}

TEST(TraceReplay, MatchesStreamingBitIdentical)
{
    // The core's only input is a trace, so the trace must be the
    // generator's stream exactly, and a run must not depend on whose
    // buffer it replays: a caller-built one run on the core, or the
    // registry's through simulate().
    for (const char *name : {"gcc", "mcf", "perl", "twolf"}) {
        const WorkloadProfile &profile = profileByName(name);
        SimOptions opts;
        opts.measureInstrs = 12000;
        const auto own = ownTrace(profile, opts);
        SCOPED_TRACE(name);
        expectTraceIsGeneratorStream(*own, profile, opts.streamId);
        for (const CoreConfig &cfg :
             {CoreConfig::initial(), referenceConfig()}) {
            const SimStats from_own = runOnTrace(own, cfg, opts);
            const SimStats from_registry = simulate(profile, cfg, opts);
            SCOPED_TRACE(cfg.name);
            expectSameStats(from_own, from_registry);
        }
    }
}

// Exact per-workload statistics of the whole suite on the initial
// configuration (captured from the pre-optimization scan-based core).
// Any scheduler or trace change that shifts timing by even one cycle
// trips this; a caller-built trace run on the core and simulate() on
// the registry's must both reproduce it.
TEST(GoldenStats, SuiteOnInitialConfigIsFrozen)
{
    struct Golden
    {
        const char *name;
        uint64_t instructions, cycles, loads, stores, l1Hits,
            l1Misses, l2Hits, l2Misses, condBranches, mispredicts,
            robOccupancySum;
    };
    static const Golden kGolden[] = {
        {"bzip", 30000u, 105499u, 7327u, 2968u, 4806u, 2461u, 1566u,
         895u, 3905u, 418u, 6778123u},
        {"crafty", 30000u, 41883u, 9058u, 2142u, 7592u, 1259u, 972u,
         287u, 2663u, 236u, 3775699u},
        {"gap", 30000u, 63342u, 7124u, 2751u, 4947u, 2050u, 1561u,
         489u, 3296u, 331u, 5162507u},
        {"gcc", 30000u, 104600u, 7946u, 3724u, 4535u, 3324u, 2361u,
         963u, 3747u, 687u, 6307303u},
        {"gzip", 30000u, 63542u, 6831u, 2747u, 5174u, 1597u, 1232u,
         365u, 4218u, 521u, 3833252u},
        {"mcf", 30000u, 342654u, 9250u, 2710u, 2981u, 6249u, 2790u,
         3459u, 5620u, 703u, 15528814u},
        {"parser", 30000u, 108990u, 8093u, 2686u, 5445u, 2565u, 1819u,
         746u, 4880u, 890u, 5240079u},
        {"perl", 30000u, 43757u, 8043u, 3174u, 6848u, 948u, 761u,
         187u, 3938u, 470u, 2931215u},
        {"twolf", 30000u, 162728u, 8367u, 2496u, 4410u, 3910u, 2564u,
         1346u, 4254u, 848u, 7670343u},
        {"vortex", 30000u, 64050u, 8132u, 4445u, 5772u, 2154u, 1709u,
         445u, 3698u, 395u, 4732744u},
        {"vpr", 30000u, 108312u, 8484u, 2679u, 5653u, 2785u, 2066u,
         719u, 4018u, 642u, 5824367u},
    };
    const CoreConfig cfg = CoreConfig::initial();
    for (const Golden &g : kGolden) {
        const WorkloadProfile &profile = profileByName(g.name);
        SimOptions opts;
        opts.measureInstrs = 30000;
        for (bool own : {false, true}) {
            const SimStats s =
                own ? runOnTrace(ownTrace(profile, opts), cfg, opts)
                    : simulate(profile, cfg, opts);
            SCOPED_TRACE(std::string(g.name) +
                         (own ? " (caller-built buffer)" : " (registry)"));
            EXPECT_EQ(s.instructions, g.instructions);
            EXPECT_EQ(s.cycles, g.cycles);
            EXPECT_EQ(s.loads, g.loads);
            EXPECT_EQ(s.stores, g.stores);
            EXPECT_EQ(s.l1Hits, g.l1Hits);
            EXPECT_EQ(s.l1Misses, g.l1Misses);
            EXPECT_EQ(s.l2Hits, g.l2Hits);
            EXPECT_EQ(s.l2Misses, g.l2Misses);
            EXPECT_EQ(s.condBranches, g.condBranches);
            EXPECT_EQ(s.mispredicts, g.mispredicts);
            EXPECT_EQ(s.robOccupancySum, g.robOccupancySum);
        }
    }
}

// Parameterized sweep: every suite workload simulates cleanly on a
// range of legal configurations.
class SimAllWorkloads : public testing::TestWithParam<std::string>
{
};

TEST_P(SimAllWorkloads, RunsOnInitialAndReference)
{
    for (const CoreConfig &cfg :
         {CoreConfig::initial(), referenceConfig()}) {
        SimOptions opts;
        opts.measureInstrs = 15000;
        const SimStats s =
            simulate(profileByName(GetParam()), cfg, opts);
        EXPECT_EQ(s.instructions, 15000u);
        EXPECT_GT(s.cycles, 0u);
        EXPECT_GT(s.ipc(), 0.0);
        EXPECT_LE(s.ipc(), cfg.width);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, SimAllWorkloads, testing::ValuesIn(spec2000intNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// --- area / power model -------------------------------------------------------

TEST(AreaPower, AreaGrowsWithCaches)
{
    CoreConfig small = referenceConfig();
    CoreConfig big = referenceConfig();
    big.l2Sets *= 4; // 4x L2 capacity
    EXPECT_GT(configAreaMm2(big), configAreaMm2(small));
}

TEST(AreaPower, AreaGrowsWithWidthAndWindow)
{
    CoreConfig narrow = referenceConfig();
    narrow.width = 2;
    CoreConfig wide = referenceConfig();
    wide.width = 8;
    EXPECT_GT(configAreaMm2(wide), configAreaMm2(narrow));
    CoreConfig big_rob = referenceConfig();
    big_rob.robSize = 1024;
    EXPECT_GT(configAreaMm2(big_rob), configAreaMm2(referenceConfig()));
}

TEST(AreaPower, EstimateIsConsistent)
{
    const CoreConfig cfg = referenceConfig();
    const SimStats stats = quickSim("gcc", cfg);
    const AreaPowerEstimate est = estimateAreaPower(cfg, stats);
    EXPECT_NEAR(est.totalMm2,
                est.coreMm2 + est.l1Mm2 + est.l2Mm2 + est.windowMm2,
                1e-9);
    EXPECT_NEAR(est.totalW, est.dynamicW + est.staticW, 1e-12);
    EXPECT_GT(est.dynamicW, 0.0);
    EXPECT_GT(est.staticW, 0.0);
    EXPECT_GT(est.epiNj, 0.0);
    // Plausible 90nm-class magnitudes: a few to tens of mm2 / watts.
    EXPECT_GT(est.totalMm2, 1.0);
    EXPECT_LT(est.totalMm2, 400.0);
    EXPECT_LT(est.totalW, 200.0);
}

TEST(AreaPower, BusierCoreBurnsMoreDynamicPower)
{
    const CoreConfig cfg = referenceConfig();
    const SimStats hot = quickSim("crafty", cfg);  // high IPC
    const SimStats cold = quickSim("mcf", cfg);    // low IPC
    EXPECT_GT(estimateAreaPower(cfg, hot).dynamicW,
              estimateAreaPower(cfg, cold).dynamicW);
}

TEST(AreaPower, IptPerWattPenalizesPower)
{
    const CoreConfig cfg = referenceConfig();
    const SimStats stats = quickSim("gap", cfg);
    const double merit = iptPerWatt(cfg, stats, 2.0);
    const AreaPowerEstimate est = estimateAreaPower(cfg, stats);
    EXPECT_NEAR(merit, stats.ipt() * stats.ipt() / est.totalW, 1e-12);
}

TEST(AreaPowerDeathTest, RejectsEmptyStats)
{
    EXPECT_EXIT(estimateAreaPower(referenceConfig(), SimStats{}),
                testing::ExitedWithCode(1), "empty");
}
