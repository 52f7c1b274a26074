/**
 * @file
 * Concurrency stress for the shared trace registry (DESIGN.md §6):
 * many threads grow and replay the same (profile, streamId) traces at
 * once while others clear the registry. Run this binary from a
 * -DXPS_SANITIZE=thread build tree (`ctest -L sanitize`) to prove the
 * grow-while-replay protocol race-free; in plain builds it still
 * verifies prefix stability and replay determinism under contention.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "sim/simulator.hh"
#include "util/metrics.hh"
#include "workload/trace.hh"

using namespace xps;

TEST(TraceStress, ConcurrentGrowAndReplay)
{
    clearTraceRegistry();
    const WorkloadProfile &gcc = profileByName("gcc");
    const WorkloadProfile &mcf = profileByName("mcf");

    constexpr int kGrowers = 4;
    constexpr int kReplayers = 4;
    constexpr int kRounds = 12;
    constexpr uint64_t kStep = 3000;

    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;

    // Growers ratchet the requested length up; every handle they get
    // back must satisfy the request and agree on the stream prefix.
    for (int t = 0; t < kGrowers; ++t) {
        threads.emplace_back([&, t] {
            const WorkloadProfile &p = t % 2 ? gcc : mcf;
            std::shared_ptr<const TraceBuffer> prev;
            for (int r = 1; r <= kRounds; ++r) {
                const uint64_t want =
                    kStep * static_cast<uint64_t>(r) +
                    static_cast<uint64_t>(t) * 17;
                auto buf = sharedTrace(p, 0, want);
                if (buf->size() < want + kTraceSlackOps ||
                    buf->fingerprint() != profileFingerprint(p)) {
                    failed = true;
                    return;
                }
                if (prev) {
                    // Growth must preserve the prefix bit-for-bit.
                    // Compare only the overlap: the clearer thread
                    // may have wiped the registry, and a regenerated
                    // buffer sized for this round's request can be
                    // shorter than a previously grown one.
                    const uint64_t overlap =
                        std::min(prev->size(), buf->size());
                    for (uint64_t i = 0; i < overlap;
                         i += overlap / 64 + 1) {
                        if (!(prev->ops()[i] == buf->ops()[i])) {
                            failed = true;
                            return;
                        }
                    }
                }
                prev = std::move(buf);
            }
        });
    }

    // Replayers hammer the buffers through cursors (and through the
    // simulator itself, the real consumer) while growth is ongoing.
    for (int t = 0; t < kReplayers; ++t) {
        threads.emplace_back([&, t] {
            const WorkloadProfile &p = t % 2 ? gcc : mcf;
            for (int r = 0; r < kRounds; ++r) {
                auto buf = sharedTrace(p, 0, kStep);
                TraceCursor cursor(buf);
                uint64_t sink = 0;
                for (uint64_t i = 0; i < kStep; ++i)
                    sink += static_cast<uint64_t>(cursor.next().cls);
                if (cursor.generated() != kStep || sink == 0) {
                    failed = true;
                    return;
                }
            }
        });
    }

    // One thread periodically clears the registry: outstanding
    // handles must stay valid, later calls regenerate.
    threads.emplace_back([&] {
        for (int r = 0; r < kRounds / 2; ++r) {
            std::this_thread::yield();
            clearTraceRegistry();
        }
    });

    for (auto &t : threads)
        t.join();
    EXPECT_FALSE(failed.load());
    clearTraceRegistry();
}

TEST(TraceStress, ConcurrentSimulationsShareOneBuffer)
{
    clearTraceRegistry();
    const WorkloadProfile &gzip = profileByName("gzip");
    SimOptions opts;
    opts.measureInstrs = 4000;
    const auto trace = sharedTrace(gzip, opts.streamId, opts.traceOps());
    const SimStats golden = simulate(gzip, CoreConfig::initial(), opts);
    Metrics &metrics = Metrics::global();
    const uint64_t builds = metrics.counter("trace_cache.misses").get() +
                            metrics.counter("trace_cache.grows").get();

    std::atomic<bool> mismatch{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            for (int r = 0; r < 4; ++r) {
                const SimStats s =
                    simulate(gzip, CoreConfig::initial(), opts);
                if (s.cycles != golden.cycles ||
                    s.instructions != golden.instructions)
                    mismatch = true;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_FALSE(mismatch.load());
    // Every run replayed the registry's one buffer: none was built or
    // grown, and the registry still hands out the same one.
    EXPECT_EQ(metrics.counter("trace_cache.misses").get() +
                  metrics.counter("trace_cache.grows").get(),
              builds);
    EXPECT_EQ(sharedTrace(gzip, opts.streamId, opts.traceOps()), trace);
    clearTraceRegistry();
}
