/**
 * @file
 * The `prop` test tier (DESIGN.md §8, run with `ctest -L prop`):
 *
 *  - replay every minimal reproduction committed under
 *    tests/prop_corpus/ (failures from past campaigns must stay
 *    fixed);
 *  - fuzz XPS_FUZZ_ITERS (default 500) random configuration/workload
 *    pairs through the differential comparator: zero invariant
 *    violations, exact oracle event counts, and IPC domination are
 *    required of every case — any failure is shrunk to a minimal
 *    config and serialized into the corpus for replay;
 *  - prove the harness has teeth: deliberately inject a
 *    wakeup-latency bug into OooCore (testhooks::injectWakeupBug)
 *    and require the checker to catch it and the shrinker to reduce
 *    it to a minimal configuration that still needs a pipelined
 *    scheduler (schedDepth >= 2), without polluting the corpus.
 */

#include <gtest/gtest.h>

#include "check/differential.hh"
#include "check/invariant_checker.hh"
#include "check/propgen.hh"
#include "sim/ooo_core.hh"
#include "util/env.hh"

using namespace xps;

#ifndef XPS_PROP_CORPUS_DIR
#define XPS_PROP_CORPUS_DIR "tests/prop_corpus"
#endif

namespace
{

/** RAII guard so a failing test cannot leak the injected bug. */
struct InjectBugGuard
{
    InjectBugGuard() { testhooks::injectWakeupBug = true; }
    ~InjectBugGuard() { testhooks::injectWakeupBug = false; }
};

} // namespace

TEST(PropTier, CorpusReplays)
{
    const auto cases = loadCorpus(XPS_PROP_CORPUS_DIR);
    for (size_t i = 0; i < cases.size(); ++i) {
        const DiffResult r = runDifferentialCase(cases[i]);
        EXPECT_TRUE(r.passed)
            << "corpus case " << i << " regressed: " << r.failure
            << "\n" << cases[i].serialize();
    }
}

TEST(PropTier, RandomSweepFindsNoFailures)
{
    const uint64_t iters =
        static_cast<uint64_t>(envInt("XPS_FUZZ_ITERS", 500));
    const uint64_t seed =
        static_cast<uint64_t>(envInt("XPS_FUZZ_SEED", 20080301));
    const FuzzReport rep =
        fuzzDifferential(iters, seed, XPS_PROP_CORPUS_DIR);
    EXPECT_EQ(rep.iterations, iters);
    EXPECT_EQ(rep.failures, 0u)
        << rep.failures << " failing case(s); first (shrunk to "
        << shrinkDistance(rep.firstFailure)
        << " fields from baseline): " << rep.firstFailureMessage
        << "\n" << rep.firstFailure.serialize()
        << "corpus repros written: " << rep.corpusFiles.size();
}

TEST(PropTier, OracleMatchesAllCalibratedBenchmarks)
{
    PropCase c;
    c.config = CoreConfig::initial();
    c.measureInstrs = 5000;
    c.warmupInstrs = 5000;
    for (const WorkloadProfile &prof : spec2000int()) {
        c.profile = prof;
        const DiffResult r = runDifferentialCase(c);
        EXPECT_TRUE(r.passed) << prof.name << ": " << r.failure;
    }
}

TEST(PropTier, InjectedWakeupBugCaughtAndShrunk)
{
    InjectBugGuard guard;

    // The bug wakes dependents at completion, skipping the
    // schedDepth-1 wakeup-loop cycles; it is invisible when
    // schedDepth == 1, so sweep generated cases until one with a
    // pipelined scheduler fails.
    PropGen gen(1234);
    bool found = false;
    PropCase failing;
    std::string firstMessage;
    for (int i = 0; i < 60 && !found; ++i) {
        const PropCase c = gen.next();
        if (c.config.schedDepth < 2)
            continue;
        const DiffResult r = runDifferentialCase(c);
        if (!r.passed) {
            found = true;
            failing = c;
            firstMessage = r.failure;
        }
    }
    ASSERT_TRUE(found)
        << "injected wakeup bug never detected across 60 cases";
    EXPECT_NE(firstMessage.find("wakes dependents"),
              std::string::npos)
        << firstMessage;

    // Shrink to a minimal config. The bug must survive shrinking and
    // the minimal config must still need a pipelined scheduler.
    const PropProperty passes = [](const PropCase &pc) {
        return runDifferentialCase(pc).passed;
    };
    const PropCase minimal = shrinkCase(failing, passes, gen.timing());
    const DiffResult mr = runDifferentialCase(minimal);
    EXPECT_FALSE(mr.passed);
    EXPECT_FALSE(mr.invariantViolations.empty());
    EXPECT_GE(minimal.config.schedDepth, 2);
    EXPECT_LE(shrinkDistance(minimal), shrinkDistance(failing));

    // And with the bug removed, the minimal case passes again —
    // the detection really was the injected bug.
    testhooks::injectWakeupBug = false;
    const DiffResult fixed = runDifferentialCase(minimal);
    EXPECT_TRUE(fixed.passed) << fixed.failure;
}
