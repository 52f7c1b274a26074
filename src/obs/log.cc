#include "obs/log.hh"

#include <unistd.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>

#include "obs/json.hh"
#include "obs/shard_sink.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace xps
{

namespace detail
{

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    }
    va_end(ap2);
    return out;
}

} // namespace detail

namespace obs
{
namespace log
{

namespace detail
{
bool gEnabled = false;
int gMinLevel = static_cast<int>(Level::Info);
} // namespace detail

namespace
{

using obs::detail::ShardSink;

/** JSON events kept per (component, level) per second. */
constexpr uint64_t kRatePerSec = 200;
constexpr uint64_t kWindowNs = 1000ull * 1000 * 1000;

/** One rate-limit window per (component, level). */
struct RateWindow
{
    uint64_t startNs = 0;
    uint64_t count = 0;
    uint64_t suppressed = 0;
};

struct LogState;
LogState &state();

/** The JSON stream's sink and rate windows, both guarded by the
 *  sink's mutex. */
struct LogState
{
    // Logs are cold relative to spans: a small buffer keeps the tail
    // a crash can lose short without measurable write amplification.
    ShardSink sink{{
        .name = "log",
        .shardPrefix = "log.",
        .head = "",
        .sep = "\n",
        .tail = "",
        .bufferBytes = 16 * 1024,
        .dropCounter = "log.dropped_events",
        .enabled = &detail::gEnabled,
        .merge = [] { mergeLog(); },
        .flush = flushLog,
        .afterFork = [] { state().windows.clear(); },
    }};
    std::map<std::pair<std::string, Level>, RateWindow> windows;
};

LogState &
state()
{
    static LogState *s = new LogState();
    return *s;
}

std::mutex gStderrMutex;

// Timestamps come from the trace clock (obs::detail::nowNs(),
// including its test shim): log and span timestamps line up in
// post-mortems by construction.
using obs::detail::nowNs;

/** Level names, indexed by Level. */
constexpr const char *kLevelNames[] = {"debug", "info", "warn", "error"};

const char *
levelName(Level level)
{
    return kLevelNames[static_cast<int>(level)];
}

/** Parse a level name; false (out unchanged) on garbage. */
bool
parseLevel(const std::string &name, Level &out)
{
    for (int i = 0; i < 4; ++i) {
        if (name == kLevelNames[i]) {
            out = static_cast<Level>(i);
            return true;
        }
    }
    return false;
}

/** Emit one warn event in place of a window's suppressed events.
 *  Caller holds the sink lock. */
void
summarizeLocked(LogState &s, const std::string &component,
                RateWindow &w, uint64_t tsNs)
{
    if (w.suppressed == 0)
        return;
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "{\"ts\":%.3f,\"level\":\"warn\",\"component\":\"log\","
        "\"msg\":\"rate limit: suppressed %llu event(s) from %s\","
        "\"pid\":%d,\"tid\":%u}\n",
        static_cast<double>(tsNs) / 1000.0,
        static_cast<unsigned long long>(w.suppressed),
        json::escape(component).c_str(), static_cast<int>(::getpid()),
        obs::detail::threadId());
    s.sink.appendLocked(line, tsNs);
    w.suppressed = 0;
}

/** Summarize every window still holding suppressed events: no later
 *  event may come to roll them. Caller holds the sink lock. */
void
summarizeAllLocked(LogState &s, uint64_t tsNs)
{
    for (auto &[key, w] : s.windows)
        summarizeLocked(s, key.first, w, tsNs);
}

/** Resolve the floor and arm the JSON stream from the environment on
 *  program start-up, like the tracer: no call sites to sprinkle. */
const bool gEnvArmed = [] {
    Level level = Level::Info;
    const std::string name = envString("XPS_LOG_LEVEL", "info");
    if (!parseLevel(name, level))
        std::fprintf(stderr,
                     "[warn] XPS_LOG_LEVEL: unknown level '%s'; "
                     "using info\n", name.c_str());
    detail::gMinLevel = static_cast<int>(level);
    const std::string path = envString("XPS_LOG_JSON", "");
    if (path.empty())
        return false;
    configureLogging(path, level);
    return true;
}();

} // namespace

namespace detail
{

void
emit(Level level, const char *component, const std::string &msg,
     std::string fieldsJson)
{
    const uint64_t tsNs = nowNs();
    // The request context (tracer.cc) is guarded by its own leaf
    // mutex; read it before taking ours so lock order stays trivial.
    const std::string rid = requestContext();
    char head[128];
    const int head_len = std::snprintf(
        head, sizeof(head), "{\"ts\":%.3f,\"level\":\"%s\",",
        static_cast<double>(tsNs) / 1000.0, levelName(level));
    std::string line(head, static_cast<size_t>(head_len));
    line += "\"component\":\"";
    line += json::escape(component);
    line += "\",\"msg\":\"";
    line += json::escape(msg);
    line += "\"";
    char mid[64];
    const int mid_len = std::snprintf(
        mid, sizeof(mid), ",\"pid\":%d,\"tid\":%u",
        static_cast<int>(::getpid()), obs::detail::threadId());
    line.append(mid, static_cast<size_t>(mid_len));
    if (!rid.empty()) {
        line += ",\"rid\":\"";
        line += json::escape(rid);
        line += "\"";
    }
    if (!fieldsJson.empty()) {
        line += ",\"fields\":";
        line += fieldsJson;
    }
    line += "}\n";

    LogState &s = state();
    std::lock_guard<std::mutex> lock(s.sink.mutex);
    if (!gEnabled)
        return;
    // Rate limit per (component, level): a crash loop must not turn
    // the log into its own outage. A window roll summarizes.
    RateWindow &w = s.windows[{component, level}];
    if (tsNs - w.startNs >= kWindowNs) {
        summarizeLocked(s, component, w, tsNs);
        w.startNs = tsNs;
        w.count = 0;
    }
    if (++w.count > kRatePerSec) {
        ++w.suppressed;
        Metrics::global().counter("log.suppressed").add();
        return;
    }
    s.sink.appendLocked(line, tsNs);
}

void
report(Level level, const char *tag, const std::string &msg)
{
    if (enabled())
        emit(level, "log", msg, std::string());
    std::lock_guard<std::mutex> lock(gStderrMutex);
    std::fprintf(stderr, "[%s] %s\n", tag, msg.c_str());
}

void
die(const char *tag, const std::string &msg, bool abortProcess)
{
    report(Level::Error, tag, msg);
    flushLog();
    if (abortProcess)
        std::abort();
    std::exit(1);
}

} // namespace detail

void
configureLogging(const std::string &mergedPath, Level minLevel)
{
    LogState &s = state();
    std::lock_guard<std::mutex> lock(s.sink.mutex);
    s.windows.clear();
    s.sink.armLocked(mergedPath, nowNs());
    detail::gMinLevel = static_cast<int>(minLevel);
}

void
disableLogging()
{
    LogState &s = state();
    std::lock_guard<std::mutex> lock(s.sink.mutex);
    s.sink.disarmLocked();
}

void
flushLog()
{
    LogState &s = state();
    std::lock_guard<std::mutex> lock(s.sink.mutex);
    if (!detail::gEnabled)
        return;
    const uint64_t now = nowNs();
    summarizeAllLocked(s, now);
    s.sink.flushLocked(now);
}

LogMergeStats
mergeLog()
{
    LogState &s = state();
    {
        std::lock_guard<std::mutex> lock(s.sink.mutex);
        if (detail::gEnabled)
            summarizeAllLocked(s, nowNs());
    }
    const ShardSink::MergeCounts counts =
        s.sink.merge(nowNs(), [](const json::Value &ev) {
            return ev.find("level") && ev.find("msg");
        });
    if (counts.published)
        Metrics::global().counter("log.lines_merged").add(counts.lines);
    return {counts.shards, counts.lines, counts.tornShards,
            counts.tornLines};
}

} // namespace log
} // namespace obs
} // namespace xps
