#include "util/env.hh"

#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>

#include "util/logging.hh"

namespace xps
{

namespace
{

/** Malformed knobs warn once per variable, not once per read — the
 *  Budget is read in hot helpers. */
bool
warnOnce(const char *name)
{
    static std::mutex mutex;
    static std::set<std::string> warned;
    std::lock_guard<std::mutex> lock(mutex);
    return warned.insert(name).second;
}

enum class ParseStatus { Ok, Malformed, Overflow };

ParseStatus
parseInt(const char *text, int64_t &out)
{
    errno = 0;
    char *end = nullptr;
    const long long parsed = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0')
        return ParseStatus::Malformed;
    if (errno == ERANGE)
        return ParseStatus::Overflow;
    out = parsed;
    return ParseStatus::Ok;
}

} // namespace

int64_t
envInt(const char *name, int64_t def)
{
    const char *val = std::getenv(name);
    if (!val || !*val)
        return def;
    int64_t parsed = 0;
    switch (parseInt(val, parsed)) {
    case ParseStatus::Ok:
        return parsed;
    case ParseStatus::Malformed:
        if (warnOnce(name))
            warn("%s='%s' is not an integer; using the default %lld",
                 name, val, static_cast<long long>(def));
        return def;
    case ParseStatus::Overflow:
        if (warnOnce(name))
            warn("%s='%s' overflows; using the default %lld", name, val,
                 static_cast<long long>(def));
        return def;
    }
    return def;
}

uint64_t
envUInt(const char *name, uint64_t def)
{
    const char *val = std::getenv(name);
    if (!val || !*val)
        return def;
    int64_t parsed = 0;
    switch (parseInt(val, parsed)) {
    case ParseStatus::Ok:
        if (parsed < 0) {
            if (warnOnce(name))
                warn("%s='%s' must not be negative; using the default "
                     "%llu", name, val,
                     static_cast<unsigned long long>(def));
            return def;
        }
        return static_cast<uint64_t>(parsed);
    case ParseStatus::Malformed:
        if (warnOnce(name))
            warn("%s='%s' is not an integer; using the default %llu",
                 name, val, static_cast<unsigned long long>(def));
        return def;
    case ParseStatus::Overflow:
        if (warnOnce(name))
            warn("%s='%s' overflows; using the default %llu", name, val,
                 static_cast<unsigned long long>(def));
        return def;
    }
    return def;
}

std::string
envString(const char *name, const std::string &def)
{
    const char *val = std::getenv(name);
    return (val && *val) ? std::string(val) : def;
}

int
resolveThreads(int requested)
{
    // A pool larger than this is never useful on the workloads we
    // run and would only exhaust thread-creation limits; a huge
    // request is almost certainly a typo'd XPS_THREADS.
    constexpr int kMaxThreads = 4096;
    int n = requested;
    if (n <= 0)
        n = static_cast<int>(envInt("XPS_THREADS", 0));
    if (n <= 0)
        n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0)
        n = 2; // hardware_concurrency may be unknowable
    if (n > kMaxThreads) {
        warn("resolveThreads: clamping %d worker threads to %d", n,
             kMaxThreads);
        n = kMaxThreads;
    }
    return n;
}

const Budget &
Budget::get()
{
    static const Budget budget = [] {
        Budget b;
        b.evalInstrs = envUInt("XPS_EVAL_INSTRS", 80000);
        b.saIters = envUInt("XPS_SA_ITERS", 360);
        b.finalInstrs = envUInt("XPS_FINAL_INSTRS", 200000);
        b.resultsDir = envString("XPS_RESULTS_DIR", "results");
        b.threads = resolveThreads();
        b.checkpointEvery = envUInt("XPS_CHECKPOINT_EVERY", 64);
        b.supervise = envUInt("XPS_SUPERVISE", 0) != 0;
        return b;
    }();
    return budget;
}

} // namespace xps
