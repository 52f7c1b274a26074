/**
 * @file
 * google-benchmark microbenchmarks of the reproduction's hot kernels:
 * the timing simulator, the workload generator, the branch predictor,
 * the cache model, cacti-lite, and the annealer loop. These bound the
 * wall-clock cost of the experiment pipeline (the paper's three-week
 * blade run maps onto these primitives).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "explore/annealer.hh"
#include "sim/cache.hh"
#include "sim/simulator.hh"
#include "util/rng.hh"
#include "timing/unit_timing.hh"
#include "workload/branch_predictor.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workload/trace.hh"

using namespace xps;

namespace
{

void
BM_GeneratorThroughput(benchmark::State &state)
{
    SyntheticWorkload gen(profileByName("gcc"));
    uint64_t sum = 0;
    for (auto _ : state) {
        const MicroOp &op = gen.next();
        sum += op.addr + static_cast<uint64_t>(op.cls);
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GeneratorThroughput);

void
BM_TraceReplay(benchmark::State &state)
{
    // Counterpart of BM_GeneratorThroughput: the same stream consumed
    // from a pre-generated shared buffer. The ratio of the two is the
    // per-op saving every traced evaluation gets.
    const auto trace = sharedTrace(profileByName("gcc"), 0, 1 << 20);
    TraceCursor cursor(trace);
    uint64_t sum = 0;
    for (auto _ : state) {
        if (cursor.generated() >= trace->size())
            cursor = TraceCursor(trace);
        const MicroOp &op = cursor.next();
        sum += op.addr + static_cast<uint64_t>(op.cls);
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceReplay);

void
BM_BranchPredictor(benchmark::State &state)
{
    SyntheticWorkload gen(profileByName("twolf"));
    BranchPredictor pred;
    uint64_t hits = 0;
    for (auto _ : state) {
        const MicroOp &op = gen.next();
        if (op.cls == OpClass::CondBranch)
            hits += pred.predict(op.pc, op.taken);
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BranchPredictor);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(512, static_cast<uint32_t>(state.range(0)), 64);
    Rng rng(42);
    uint64_t hits = 0;
    for (auto _ : state) {
        const uint64_t addr = rng.below(1ULL << 22);
        if (!cache.access(addr))
            cache.fill(addr);
        else
            ++hits;
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(4)->Arg(16);

void
BM_CactiLite(benchmark::State &state)
{
    UnitTiming timing;
    double acc = 0.0;
    uint64_t sets = 64;
    for (auto _ : state) {
        acc += timing.cacheAccess(sets, 4, 64);
        sets = sets == 16384 ? 64 : sets * 2;
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_CactiLite);

void
BM_SimulateWorkload(benchmark::State &state)
{
    // One evaluation replaying the shared trace — the annealer's
    // steady-state evaluation cost.
    const char *names[] = {"gzip", "gcc", "mcf"};
    const WorkloadProfile &profile =
        profileByName(names[state.range(0)]);
    const CoreConfig cfg = CoreConfig::initial();
    SimOptions opts;
    opts.measureInstrs = 20000;
    opts.warmupInstrs = 20000;
    // Build the registry's trace outside the timed loop.
    sharedTrace(profile, opts.streamId, opts.traceOps());
    for (auto _ : state) {
        const SimStats stats = simulate(profile, cfg, opts);
        benchmark::DoNotOptimize(stats.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 20000);
    state.SetLabel(profile.name);
}
BENCHMARK(BM_SimulateWorkload)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void
BM_AnnealerRound(benchmark::State &state)
{
    // One annealing round against the real simulator, every candidate
    // replaying gcc's shared trace.
    const WorkloadProfile &profile = profileByName("gcc");
    UnitTiming timing;
    SearchSpace space(timing);
    SimOptions opts;
    opts.measureInstrs = 10000;
    sharedTrace(profile, opts.streamId, opts.traceOps());
    AnnealParams params;
    params.iterations = 20;
    for (auto _ : state) {
        Annealer annealer(
            space,
            [&](const CoreConfig &cfg) {
                return simulate(profile, cfg, opts).ipt();
            },
            params);
        const AnnealResult res = annealer.run(space.initialConfig());
        benchmark::DoNotOptimize(res.bestScore);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 20);
}
BENCHMARK(BM_AnnealerRound)->Unit(benchmark::kMillisecond);

void
BM_AnnealerAnalytic(benchmark::State &state)
{
    // Annealing over an analytic objective isolates the move/refit
    // machinery from simulation cost.
    UnitTiming timing;
    SearchSpace space(timing);
    AnnealParams params;
    params.iterations = 50;
    for (auto _ : state) {
        Annealer annealer(
            space,
            [](const CoreConfig &cfg) {
                return static_cast<double>(cfg.robSize) / 64.0 +
                       1.0 / cfg.clockNs;
            },
            params);
        const AnnealResult res = annealer.run(space.initialConfig());
        benchmark::DoNotOptimize(res.bestScore);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 50);
}
BENCHMARK(BM_AnnealerAnalytic)->Unit(benchmark::kMillisecond);

// --- wakeup–select microkernel: sorted ready list vs SoA bitmap ----
//
// The data-structure swap at the heart of the core's scheduler
// (DESIGN.md §11), isolated: a 256-slot window sees bursts of wakeups
// and oldest-first selections of up to `width` ops per cycle. The
// scalar variant maintains the sorted ready vector the core used to
// keep (append + sort + inplace_merge, erase from the front); the SoA
// variant sets bits in a 4-word bitmap and selects with
// count-trailing-zeros. Reported as ns per wakeup+select op.

constexpr uint64_t kWsSlots = 256;
constexpr uint64_t kWsWidth = 4;
constexpr uint64_t kWsCycles = 4096;

/** xorshift64*: deterministic wakeup pattern shared by both sides. */
inline uint64_t
wsNext(uint64_t &s)
{
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1DULL;
}

void
BM_WakeupSelectScalar(benchmark::State &state)
{
    std::vector<uint64_t> ready;
    std::vector<uint64_t> newly;
    ready.reserve(kWsSlots);
    newly.reserve(kWsWidth);
    uint64_t sink = 0;
    for (auto _ : state) {
        ready.clear();
        uint64_t rng = 0x9E3779B97F4A7C15ULL;
        uint64_t seq = 0;
        for (uint64_t c = 0; c < kWsCycles; ++c) {
            // Wake up to `width` slots (a producer's consumers).
            newly.clear();
            const uint64_t n = wsNext(rng) % (kWsWidth + 1);
            for (uint64_t i = 0; i < n; ++i)
                newly.push_back(seq++ - wsNext(rng) % kWsSlots);
            std::sort(newly.begin(), newly.end());
            const size_t mid = ready.size();
            ready.insert(ready.end(), newly.begin(), newly.end());
            std::inplace_merge(ready.begin(),
                               ready.begin() +
                                   static_cast<long>(mid),
                               ready.end());
            // Select the oldest `width` ready ops.
            const size_t take =
                std::min<size_t>(kWsWidth, ready.size());
            for (size_t i = 0; i < take; ++i)
                sink += ready[i];
            ready.erase(ready.begin(),
                        ready.begin() + static_cast<long>(take));
        }
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kWsCycles));
}
BENCHMARK(BM_WakeupSelectScalar);

void
BM_WakeupSelectSoA(benchmark::State &state)
{
    uint64_t bits[kWsSlots / 64];
    uint64_t sink = 0;
    for (auto _ : state) {
        for (uint64_t &w : bits)
            w = 0;
        uint64_t rng = 0x9E3779B97F4A7C15ULL;
        uint64_t seq = 0;
        for (uint64_t c = 0; c < kWsCycles; ++c) {
            const uint64_t n = wsNext(rng) % (kWsWidth + 1);
            for (uint64_t i = 0; i < n; ++i) {
                const uint64_t slot =
                    (seq++ - wsNext(rng) % kWsSlots) %
                    kWsSlots;
                bits[slot >> 6] |= 1ULL << (slot & 63);
            }
            // Oldest-first select: ctz walk over the window words.
            uint64_t taken = 0;
            for (size_t w = 0;
                 w < kWsSlots / 64 && taken < kWsWidth; ++w) {
                uint64_t word = bits[w];
                while (word != 0 && taken < kWsWidth) {
                    const int b = std::countr_zero(word);
                    word &= word - 1;
                    bits[w] &= ~(1ULL << b);
                    sink += (w << 6) | static_cast<unsigned>(b);
                    ++taken;
                }
            }
        }
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kWsCycles));
}
BENCHMARK(BM_WakeupSelectSoA);

} // namespace

BENCHMARK_MAIN();
