/**
 * @file
 * Steady-state allocation discipline of the simulation kernel
 * (DESIGN.md §11): every container the cycle loop touches — ready
 * bitmap, wakeup wheel and its occupancy bitmap, consumer chains,
 * store map, memory-waiter lists, fetch ring — is sized from the
 * CoreConfig limits up front, so once capacities have reached steady
 * state the loop performs zero heap allocations. Counted with
 * replacement global operator new/delete: the second replay of the
 * same trace on the same core must allocate nothing inside advance().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/config.hh"
#include "sim/ooo_core.hh"
#include "workload/profile.hh"
#include "workload/trace.hh"

namespace
{

std::atomic<uint64_t> g_news{0};

void *
countedAlloc(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new(std::size_t n, std::align_val_t)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, std::align_val_t)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace xps;

namespace
{

constexpr uint64_t kInstrs = 20000; // measure == warmup

void
runToCompletion(OooCore &core)
{
    while (!core.advance(2000)) {
    }
}

} // namespace

TEST(Alloc, CycleLoopIsAllocationFreeAtSteadyState)
{
    const WorkloadProfile &profile = profileByName("gcc");
    const auto trace = sharedTrace(profile, 0, 2 * kInstrs);

    OooCore core(CoreConfig::initial());
    // First replay grows every container to its steady-state
    // capacity (the reservations cover the config limits; a handful
    // of data-dependent spots — wheel buckets where distinct
    // latencies collide — top up here and persist across runs).
    core.beginTraceRun(trace, kInstrs, kInstrs);
    runToCompletion(core);
    (void)core.finish();

    // Second replay of the same window: the cycle loop itself must
    // not allocate at all.
    core.beginTraceRun(trace, kInstrs, kInstrs);
    const uint64_t before = g_news.load(std::memory_order_relaxed);
    runToCompletion(core);
    const uint64_t after = g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << (after - before)
        << " heap allocation(s) inside the steady-state cycle loop";

    // And it still produced a complete, plausible run.
    const SimStats stats = core.finish();
    EXPECT_EQ(stats.instructions, kInstrs);
    EXPECT_GT(stats.cycles, 0u);
}

// A second core of a *different* configuration also reaches zero
// steady-state allocations: the property is structural, not an
// artifact of the initial config's sizes.
TEST(Alloc, WiderCoreAlsoAllocationFree)
{
    const WorkloadProfile &profile = profileByName("mcf");
    const auto trace = sharedTrace(profile, 0, 2 * kInstrs);

    CoreConfig cfg = CoreConfig::initial();
    cfg.name = "wide";
    cfg.width = 4;
    cfg.robSize = 256;
    cfg.iqSize = 64;
    cfg.lsqSize = 128;
    cfg.schedDepth = 2;

    OooCore core(cfg);
    core.beginTraceRun(trace, kInstrs, kInstrs);
    runToCompletion(core);
    (void)core.finish();

    core.beginTraceRun(trace, kInstrs, kInstrs);
    const uint64_t before = g_news.load(std::memory_order_relaxed);
    runToCompletion(core);
    const uint64_t after = g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
}
