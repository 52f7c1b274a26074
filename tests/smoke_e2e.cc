/**
 * @file
 * End-to-end smoke test (ctest -L smoke): one 100k-instruction
 * simulation through the full stack — profile, shared trace,
 * timing-validated configuration, OoO core — with sanity bounds on
 * the outcome. Fast enough for a pre-commit check, deep enough to
 * catch a wiring break anywhere in the pipeline.
 */

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/profile.hh"

using namespace xps;

TEST(SmokeE2E, GccHundredThousandInstructions)
{
    const WorkloadProfile &profile = profileByName("gcc");
    const CoreConfig cfg = CoreConfig::initial();
    SimOptions opts;
    opts.measureInstrs = 100000;

    const SimStats s = simulate(profile, cfg, opts);
    EXPECT_EQ(s.instructions, 100000u);
    EXPECT_GT(s.cycles, s.instructions / cfg.width);
    EXPECT_GT(s.ipc(), 0.05);
    EXPECT_LE(s.ipc(), cfg.width);
    EXPECT_GT(s.loads, 0u);
    EXPECT_GT(s.stores, 0u);
    EXPECT_GT(s.condBranches, 0u);
    EXPECT_GT(s.mispredicts, 0u);
    // Forwarded loads skip the cache, so probes <= loads.
    EXPECT_GT(s.l1Hits + s.l1Misses, 0u);
    EXPECT_LE(s.l1Hits + s.l1Misses, s.loads);
    EXPECT_GT(s.ipt(), 0.0);
}
