/**
 * @file
 * Unit and property tests for src/workload: profile validation, the
 * statistical guarantees of the synthetic generator (mix, dependence
 * distances, branch-site behaviour, memory regions, determinism),
 * the tournament predictor, and the characteristics extractor.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <unordered_set>

#include "util/stats_util.hh"
#include "workload/branch_predictor.hh"
#include "workload/characteristics.hh"
#include "workload/generator.hh"
#include "workload/micro_op.hh"
#include "workload/profile.hh"
#include "workload/trace.hh"

using namespace xps;

// --- profiles -------------------------------------------------------------

TEST(Profile, SuiteHasElevenBenchmarksInPaperOrder)
{
    const auto names = spec2000intNames();
    const std::vector<std::string> expected{
        "bzip", "crafty", "gap", "gcc", "gzip", "mcf",
        "parser", "perl", "twolf", "vortex", "vpr"};
    EXPECT_EQ(names, expected);
}

TEST(Profile, AllProfilesValidate)
{
    for (const auto &p : spec2000int())
        p.validate(); // fatal on failure
    SUCCEED();
}

TEST(Profile, LookupByName)
{
    EXPECT_EQ(profileByName("mcf").name, "mcf");
    EXPECT_GT(profileByName("mcf").workingSetBytes,
              profileByName("gzip").workingSetBytes);
}

TEST(ProfileDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(profileByName("quake"), testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(ProfileDeathTest, InvalidMixIsFatal)
{
    WorkloadProfile p;
    p.name = "bad";
    p.fracLoad = 0.9;
    p.fracStore = 0.5;
    EXPECT_EXIT(p.validate(), testing::ExitedWithCode(1), "mix");
}

TEST(Profile, SeedsAreDistinct)
{
    std::set<uint64_t> seeds;
    for (const auto &p : spec2000int())
        seeds.insert(p.seed);
    EXPECT_EQ(seeds.size(), spec2000int().size());
}

TEST(Profile, BzipGzipRawSimilarButDifferentWorkingSets)
{
    // The §5.3 setup: near-identical mix/branch behaviour, an order
    // of magnitude apart in working set, different dependence density.
    const auto &bzip = profileByName("bzip");
    const auto &gzip = profileByName("gzip");
    EXPECT_NEAR(bzip.fracLoad, gzip.fracLoad, 0.05);
    EXPECT_NEAR(bzip.fracCondBranch, gzip.fracCondBranch, 0.03);
    EXPECT_NEAR(bzip.biasedTakenProb, gzip.biasedTakenProb, 0.02);
    EXPECT_GE(bzip.workingSetBytes, 8 * gzip.workingSetBytes);
    EXPECT_GT(bzip.meanDepDistance, gzip.meanDepDistance);
}

// --- generator ------------------------------------------------------------

TEST(Generator, DeterministicForSameSeed)
{
    SyntheticWorkload a(profileByName("gcc"));
    SyntheticWorkload b(profileByName("gcc"));
    for (int i = 0; i < 5000; ++i) {
        const MicroOp x = a.next();
        const MicroOp y = b.next();
        ASSERT_EQ(x.cls, y.cls);
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.srcDist[0], y.srcDist[0]);
    }
}

TEST(Generator, StreamIdDecorrelates)
{
    SyntheticWorkload a(profileByName("gcc"), 1);
    SyntheticWorkload b(profileByName("gcc"), 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next().addr == b.next().addr;
    EXPECT_LT(same, 900);
}

TEST(Generator, ResetReplaysSameStream)
{
    SyntheticWorkload gen(profileByName("vpr"));
    std::vector<uint64_t> first;
    for (int i = 0; i < 1000; ++i)
        first.push_back(gen.next().addr);
    gen.reset();
    EXPECT_EQ(gen.generated(), 0u);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(gen.next().addr, first[static_cast<size_t>(i)]);
}

TEST(Generator, CountsGenerated)
{
    SyntheticWorkload gen(profileByName("gap"));
    for (int i = 0; i < 123; ++i)
        gen.next();
    EXPECT_EQ(gen.generated(), 123u);
}

TEST(Generator, MixMatchesProfile)
{
    const auto &profile = profileByName("gcc");
    SyntheticWorkload gen(profile);
    std::map<OpClass, uint64_t> counts;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next().cls];
    EXPECT_NEAR(static_cast<double>(counts[OpClass::Load]) / n,
                profile.fracLoad, 0.01);
    EXPECT_NEAR(static_cast<double>(counts[OpClass::Store]) / n,
                profile.fracStore, 0.01);
    EXPECT_NEAR(static_cast<double>(counts[OpClass::CondBranch]) / n,
                profile.fracCondBranch, 0.01);
    EXPECT_NEAR(static_cast<double>(counts[OpClass::IntMul]) / n,
                profile.fracMul, 0.01);
}

TEST(Generator, DependenceDistancesMatchMean)
{
    const auto &profile = profileByName("crafty"); // mean 7
    SyntheticWorkload gen(profile);
    double sum = 0.0;
    uint64_t count = 0;
    for (int i = 0; i < 100000; ++i) {
        const MicroOp &op = gen.next();
        if (op.cls != OpClass::IntAlu)
            continue;
        for (int s = 0; s < op.numSrcs; ++s) {
            sum += op.srcDist[s];
            ++count;
        }
    }
    ASSERT_GT(count, 0u);
    EXPECT_NEAR(sum / static_cast<double>(count),
                profile.meanDepDistance, 0.6);
}

TEST(Generator, DependenceDistancesBounded)
{
    SyntheticWorkload gen(profileByName("mcf"));
    for (int i = 0; i < 50000; ++i) {
        const MicroOp &op = gen.next();
        for (int s = 0; s < op.numSrcs; ++s) {
            ASSERT_GE(op.srcDist[s], 1u);
            ASSERT_LE(op.srcDist[s], 256u);
        }
    }
}

TEST(Generator, LoadsAndStoresCarryAddresses)
{
    SyntheticWorkload gen(profileByName("vortex"));
    for (int i = 0; i < 20000; ++i) {
        const MicroOp &op = gen.next();
        if (op.isMem())
            ASSERT_NE(op.addr, 0u);
        else
            ASSERT_EQ(op.addr, 0u);
    }
}

TEST(Generator, BranchesCarrySitePcs)
{
    SyntheticWorkload gen(profileByName("twolf"));
    std::set<uint64_t> pcs;
    for (int i = 0; i < 50000; ++i) {
        const MicroOp &op = gen.next();
        if (op.cls == OpClass::CondBranch) {
            ASSERT_NE(op.pc, 0u);
            pcs.insert(op.pc);
        }
    }
    // Multiple static sites are exercised, bounded by the profile.
    EXPECT_GT(pcs.size(), 10u);
    EXPECT_LE(pcs.size(), profileByName("twolf").numBranchSites);
}

TEST(Generator, JumpsAreAlwaysTaken)
{
    SyntheticWorkload gen(profileByName("perl"));
    for (int i = 0; i < 50000; ++i) {
        const MicroOp &op = gen.next();
        if (op.cls == OpClass::Jump) {
            ASSERT_TRUE(op.taken);
        }
    }
}

TEST(Generator, WorkingSetFootprintTracksProfile)
{
    // mcf touches far more distinct lines than gzip at equal length.
    auto distinct_lines = [](const char *name) {
        SyntheticWorkload gen(profileByName(name));
        std::unordered_set<uint64_t> lines;
        for (int i = 0; i < 100000; ++i) {
            const MicroOp &op = gen.next();
            if (op.isMem())
                lines.insert(op.addr / 64);
        }
        return lines.size();
    };
    EXPECT_GT(distinct_lines("mcf"), 4 * distinct_lines("gzip"));
}

TEST(Generator, StoresHaveTwoSources)
{
    SyntheticWorkload gen(profileByName("bzip"));
    for (int i = 0; i < 20000; ++i) {
        const MicroOp &op = gen.next();
        if (op.isStore()) {
            ASSERT_EQ(op.numSrcs, 2);
        }
    }
}

TEST(Generator, TakenRateIsPlausible)
{
    // Loop-heavy integer code is mostly taken but not degenerate.
    SyntheticWorkload gen(profileByName("gzip"));
    uint64_t branches = 0, taken = 0;
    for (int i = 0; i < 200000; ++i) {
        const MicroOp &op = gen.next();
        if (op.cls == OpClass::CondBranch) {
            ++branches;
            taken += op.taken;
        }
    }
    const double rate =
        static_cast<double>(taken) / static_cast<double>(branches);
    EXPECT_GT(rate, 0.35);
    EXPECT_LT(rate, 0.9);
}

// Property sweep: every suite profile generates well-formed streams.
class GeneratorSuite : public testing::TestWithParam<std::string>
{
};

TEST_P(GeneratorSuite, StreamIsWellFormed)
{
    const auto &profile = profileByName(GetParam());
    SyntheticWorkload gen(profile);
    uint64_t mem = 0;
    for (int i = 0; i < 30000; ++i) {
        const MicroOp &op = gen.next();
        ASSERT_LE(op.numSrcs, 2);
        if (op.isMem()) {
            ++mem;
            ASSERT_EQ(op.addr % 8, 0u); // word aligned
        }
    }
    const double mem_frac = static_cast<double>(mem) / 30000.0;
    EXPECT_NEAR(mem_frac, profile.fracLoad + profile.fracStore, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, GeneratorSuite,
    testing::ValuesIn(spec2000intNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// --- branch predictor -------------------------------------------------------

TEST(BranchPredictor, LearnsStronglyBiasedBranch)
{
    BranchPredictor pred;
    uint64_t correct = 0;
    for (int i = 0; i < 1000; ++i)
        correct += pred.predict(0x4000, true);
    EXPECT_GT(correct, 990u);
}

TEST(BranchPredictor, LearnsShortLoop)
{
    // taken,taken,taken,not-taken repeating: local history nails it.
    BranchPredictor pred;
    uint64_t correct = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        correct += pred.predict(0x4000, i % 4 != 3);
    EXPECT_GT(static_cast<double>(correct) / n, 0.9);
}

TEST(BranchPredictor, CannotLearnRandom)
{
    BranchPredictor pred;
    Rng rng(5);
    uint64_t correct = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        correct += pred.predict(0x4000, rng.chance(0.5));
    EXPECT_NEAR(static_cast<double>(correct) / n, 0.5, 0.05);
}

TEST(BranchPredictor, TracksAccuracy)
{
    BranchPredictor pred;
    for (int i = 0; i < 100; ++i)
        pred.predict(0x10, true);
    EXPECT_EQ(pred.lookups(), 100u);
    EXPECT_GT(pred.accuracy(), 0.9);
    pred.reset();
    EXPECT_EQ(pred.lookups(), 0u);
    EXPECT_DOUBLE_EQ(pred.accuracy(), 1.0);
}

TEST(BranchPredictor, IndependentSitesDoNotAliasBadly)
{
    BranchPredictor pred;
    Rng rng(6);
    uint64_t correct = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        // 64 sites, each strongly biased in a site-specific direction.
        const uint64_t site = rng.below(64);
        const bool taken = (site % 2 == 0);
        correct += pred.predict(0x4000 + site * 16, taken);
    }
    EXPECT_GT(static_cast<double>(correct) / n, 0.95);
}

// --- characteristics --------------------------------------------------------

TEST(Characteristics, Deterministic)
{
    const auto a = measureCharacteristics(profileByName("gcc"), 50000);
    const auto b = measureCharacteristics(profileByName("gcc"), 50000);
    EXPECT_EQ(a.workingSetLog2, b.workingSetLog2);
    EXPECT_EQ(a.branchPredictability, b.branchPredictability);
    EXPECT_EQ(a.loadFrequency, b.loadFrequency);
}

TEST(Characteristics, AxesMatchProfileIntent)
{
    const auto mcf = measureCharacteristics(profileByName("mcf"), 80000);
    const auto crafty =
        measureCharacteristics(profileByName("crafty"), 80000);
    const auto gzip =
        measureCharacteristics(profileByName("gzip"), 80000);

    EXPECT_GT(mcf.workingSetLog2, gzip.workingSetLog2 + 2.0);
    EXPECT_GT(crafty.branchPredictability, mcf.branchPredictability);
    // gzip has denser chains (mean 3) than crafty (mean 7).
    EXPECT_GT(gzip.depChainDensity, crafty.depChainDensity);
    EXPECT_GT(mcf.loadFrequency, 0.25);
}

TEST(Characteristics, KiviatAxesAreFive)
{
    const auto c = measureCharacteristics(profileByName("gap"), 20000);
    EXPECT_EQ(c.kiviatAxes().size(), 5u);
    EXPECT_EQ(Characteristics::kiviatAxisNames().size(), 5u);
    EXPECT_EQ(c.featureVector().size(),
              Characteristics::featureNames().size());
}

TEST(Characteristics, NormalizedKiviatInRange)
{
    const auto suite = measureSuite(spec2000int(), 30000);
    const auto rows = normalizedKiviat(suite, 10.0);
    ASSERT_EQ(rows.size(), suite.size());
    for (const auto &row : rows) {
        for (double v : row) {
            ASSERT_GE(v, -1e-9);
            ASSERT_LE(v, 10.0 + 1e-9);
        }
    }
}

TEST(Characteristics, RenderKiviatContainsAxes)
{
    const auto names = Characteristics::kiviatAxisNames();
    const std::string out =
        renderKiviat("test", names, {1, 2, 3, 4, 5}, 10.0);
    for (const auto &axis : names)
        EXPECT_NE(out.find(axis), std::string::npos);
}

TEST(Characteristics, BzipGzipEuclideanNeighbours)
{
    // The raw-space similarity that drives the §5.3 experiment must
    // hold in measured characteristics: gzip's nearest neighbour in
    // the normalized Kiviat space is bzip.
    const auto suite = measureSuite(spec2000int(), 60000);
    auto rows = normalizedKiviat(suite, 1.0);
    size_t gzip = 0, bzip = 0;
    for (size_t i = 0; i < suite.size(); ++i) {
        if (suite[i].name == "gzip")
            gzip = i;
        if (suite[i].name == "bzip")
            bzip = i;
    }
    size_t nearest = gzip == 0 ? 1 : 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        if (i == gzip)
            continue;
        if (euclideanDistance(rows[gzip], rows[i]) <
            euclideanDistance(rows[gzip], rows[nearest])) {
            nearest = i;
        }
    }
    EXPECT_EQ(nearest, bzip);
}

// --- shared trace cache ---------------------------------------------------

TEST(Trace, TwoBuffersForSameWorkloadAreEqual)
{
    const WorkloadProfile &profile = profileByName("gzip");
    const TraceBuffer a(profile, 0, 5000);
    const TraceBuffer b(profile, 0, 5000);
    EXPECT_TRUE(a == b);
    const TraceBuffer other_stream(profile, 1, 5000);
    EXPECT_TRUE(a != other_stream);
    const TraceBuffer other_profile(profileByName("gcc"), 0, 5000);
    EXPECT_TRUE(a != other_profile);
}

TEST(Trace, CursorReplaysGeneratorStream)
{
    const WorkloadProfile &profile = profileByName("vpr");
    const TraceBuffer buffer(profile, 0, 3000);
    auto shared =
        std::make_shared<const TraceBuffer>(profile, 0, 3000);
    TraceCursor cursor(std::move(shared));
    SyntheticWorkload gen(profile, 0);
    for (int i = 0; i < 3000; ++i) {
        const MicroOp &replayed = cursor.next();
        const MicroOp generated = gen.next();
        ASSERT_TRUE(replayed == generated) << "op " << i;
    }
    EXPECT_EQ(cursor.generated(), 3000u);
}

TEST(Trace, RegistryMemoizesAndGrowsMonotonically)
{
    clearTraceRegistry();
    const WorkloadProfile &profile = profileByName("mcf");
    const auto small = sharedTrace(profile, 0, 1000);
    ASSERT_GE(small->size(), 1000u + kTraceSlackOps);
    // Same request → the same buffer, not a copy.
    EXPECT_EQ(sharedTrace(profile, 0, 1000).get(), small.get());
    // A longer request grows the trace; the old handle stays valid
    // and remains a prefix of the new buffer.
    const auto big = sharedTrace(profile, 0, 50000);
    ASSERT_GE(big->size(), 50000u + kTraceSlackOps);
    for (size_t i = 0; i < small->size(); ++i) {
        ASSERT_TRUE(small->ops()[i] == big->ops()[i])
            << "prefix diverged at op " << i;
    }
    // The grown buffer is byte-identical, ops and meta, to a fresh
    // buffer of its size: growing continues the paused generator and
    // the paused branch predictor, so the mispredict bits after the
    // old end still reflect every earlier branch.
    const TraceBuffer fresh(profile, 0, big->size());
    ASSERT_EQ(big->meta().size(), fresh.meta().size());
    for (size_t i = 0; i < fresh.size(); ++i) {
        ASSERT_TRUE(big->ops()[i] == fresh.ops()[i]) << "op " << i;
        ASSERT_EQ(big->meta()[i], fresh.meta()[i]) << "meta byte " << i;
    }
    clearTraceRegistry();
}

TEST(Trace, FingerprintSeparatesProfilesAndFollowsChanges)
{
    const uint64_t gcc = profileFingerprint(profileByName("gcc"));
    const uint64_t gzip = profileFingerprint(profileByName("gzip"));
    EXPECT_NE(gcc, gzip);
    WorkloadProfile tweaked = profileByName("gcc");
    EXPECT_EQ(profileFingerprint(tweaked), gcc);
    tweaked.meanDepDistance += 0.125;
    EXPECT_NE(profileFingerprint(tweaked), gcc);
}

TEST(MicroOp, ClassPredicates)
{
    MicroOp op;
    op.cls = OpClass::Load;
    EXPECT_TRUE(op.isLoad());
    EXPECT_TRUE(op.isMem());
    EXPECT_FALSE(op.isStore());
    EXPECT_FALSE(op.isControl());
    op.cls = OpClass::Jump;
    EXPECT_TRUE(op.isControl());
    EXPECT_FALSE(op.isMem());
}

TEST(MicroOp, ClassNames)
{
    EXPECT_STREQ(opClassName(OpClass::Load), "load");
    EXPECT_STREQ(opClassName(OpClass::CondBranch), "branch");
}
