#include "sim/cells.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "check/invariant_checker.hh"
#include "util/env.hh"
#include "util/metrics.hh"
#include "workload/trace.hh"

namespace xps
{

namespace
{

using Key = std::array<uint64_t, 5>;

struct Entry
{
    std::string workload;
    CoreConfig config;
    /** Ready once the owning thread has simulated the cell. */
    std::shared_future<SimStats> stats;
};

struct Memo
{
    std::mutex mutex;
    std::map<Key, Entry> cells; ///< guarded by mutex
};

Memo &
memo()
{
    static Memo m;
    return m;
}

Key
keyOf(const WorkloadProfile &profile, const CoreConfig &config,
      const SimOptions &opts)
{
    return {profileFingerprint(profile), configFingerprint(config),
            opts.measureInstrs, opts.effectiveWarmup(), opts.streamId};
}

/** Checked runs exist for the checking, not for their stats. */
bool
bypassesMemo(const SimOptions &opts)
{
    return opts.checker || opts.check || invariantCheckingForced();
}

} // namespace

SimStats
simulateCell(const WorkloadProfile &profile, const CoreConfig &config,
             const SimOptions &opts)
{
    if (bypassesMemo(opts))
        return simulate(profile, config, opts);
    static Counter &hits = Metrics::global().counter("cells.hits");
    static Counter &misses = Metrics::global().counter("cells.misses");

    Memo &m = memo();
    const Key key = keyOf(profile, config, opts);
    std::shared_future<SimStats> cached;
    std::promise<SimStats> owned;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(m.mutex);
        const auto it = m.cells.find(key);
        if (it == m.cells.end()) {
            m.cells.emplace(key, Entry{profile.name, config,
                                       owned.get_future().share()});
            owner = true;
        } else if (it->second.workload == profile.name &&
                   it->second.config.sameArch(config)) {
            cached = it->second.stats;
        }
        // else: a fingerprint collision, simulated uncached below.
    }
    if (cached.valid()) {
        hits.add();
        return cached.get();
    }
    misses.add();
    if (!owner)
        return simulate(profile, config, opts);
    try {
        const SimStats stats = simulate(profile, config, opts);
        owned.set_value(stats);
        return stats;
    } catch (...) {
        // Waiters rethrow it; a later request simulates afresh.
        owned.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(m.mutex);
        m.cells.erase(key);
        throw;
    }
}

void
prefetchCells(const std::vector<Cell> &cells, int threads)
{
    // One job per cell the memo lacks, so no pool thread waits on
    // another's cell.
    std::vector<const Cell *> todo;
    {
        Memo &m = memo();
        std::set<Key> queued;
        std::lock_guard<std::mutex> lock(m.mutex);
        for (const Cell &cell : cells) {
            if (bypassesMemo(cell.opts))
                continue;
            const Key key = keyOf(cell.profile, cell.config, cell.opts);
            if (!m.cells.count(key) && queued.insert(key).second)
                todo.push_back(&cell);
        }
    }
    if (todo.empty())
        return;

    std::atomic<size_t> next{0};
    std::mutex failure_mutex;
    std::exception_ptr failure; ///< first one; guarded by failure_mutex
    auto worker = [&]() {
        for (size_t i = next.fetch_add(1); i < todo.size();
             i = next.fetch_add(1)) {
            const Cell &cell = *todo[i];
            try {
                simulateCell(cell.profile, cell.config, cell.opts);
            } catch (...) {
                std::lock_guard<std::mutex> lock(failure_mutex);
                if (!failure)
                    failure = std::current_exception();
                next.store(todo.size()); // stop handing out cells
            }
        }
    };
    const size_t nthreads = std::min(
        todo.size(), static_cast<size_t>(resolveThreads(threads)));
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (size_t t = 0; t < nthreads; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    if (failure)
        std::rethrow_exception(failure);
}

void
clearCells()
{
    Memo &m = memo();
    std::lock_guard<std::mutex> lock(m.mutex);
    m.cells.clear();
}

} // namespace xps
