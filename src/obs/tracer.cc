#include "obs/tracer.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "obs/shard_sink.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace xps
{
namespace obs
{

namespace detail
{
bool gEnabled = false;
} // namespace detail

namespace
{

using detail::ShardSink;

uint64_t (*gClockFn)() = nullptr;

ShardSink &
sink()
{
    static ShardSink *s = new ShardSink({
        .name = "trace",
        .shardPrefix = "shard.",
        .head = "{\"traceEvents\":[\n",
        .sep = ",\n",
        .tail = "],\"displayTimeUnit\":\"ms\"}\n",
        .bufferBytes = 64 * 1024,
        .dropCounter = "trace.dropped_spans",
        .enabled = &detail::gEnabled,
        .merge = [] { mergeTrace(); },
        .flush = flushTrace,
        .afterFork = nullptr,
    });
    return *s;
}

/**
 * The ambient request id, escaped once at set time. A leaf lock of
 * its own: the structured logger reads it from inside its emit path,
 * so it must never share the sink's lock.
 */
struct RidState
{
    std::mutex mutex;
    std::string rid;
    std::string ridEscaped;
};

RidState &
ridState()
{
    static RidState *r = new RidState();
    return *r;
}

/** FNV-1a 64-bit: stable flow ids from request-id strings. */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

void
appendEvent(const char *name, const char *cat, char ph,
            uint64_t tsNs, uint64_t durNs, bool hasDur,
            const std::string &args)
{
    // Serialize outside the sink lock; copy the ambient rid first
    // (and release its lock) so the two locks never nest.
    std::string rid;
    {
        RidState &r = ridState();
        std::lock_guard<std::mutex> ridLock(r.mutex);
        rid = r.ridEscaped;
    }
    char head[256];
    const int head_len = std::snprintf(
        head, sizeof(head),
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
        "\"ts\":%.3f,", name, cat, ph,
        static_cast<double>(tsNs) / 1000.0);
    char mid[128];
    int mid_len;
    if (hasDur) {
        mid_len = std::snprintf(
            mid, sizeof(mid), "\"dur\":%.3f,\"pid\":%d,\"tid\":%u",
            static_cast<double>(durNs) / 1000.0,
            static_cast<int>(::getpid()), detail::threadId());
    } else {
        mid_len = std::snprintf(
            mid, sizeof(mid), "%s\"pid\":%d,\"tid\":%u",
            ph == 'i' ? "\"s\":\"t\"," : "",
            static_cast<int>(::getpid()), detail::threadId());
    }
    std::string line(head, static_cast<size_t>(head_len));
    line.append(mid, static_cast<size_t>(mid_len));
    if (!rid.empty()) {
        line += ",\"rid\":\"";
        line += rid;
        line += "\"";
    }
    if (!args.empty()) {
        line += ",\"args\":";
        line += args;
    }
    line += "}\n";

    ShardSink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (detail::gEnabled)
        s.appendLocked(line, tsNs);
}

/** Arm from the environment on program start-up, like the metrics
 *  registry: no call sites to sprinkle, one knob to flip. */
const bool gEnvArmed = [] {
    const std::string path = envString("XPS_TRACE_JSON", "");
    if (path.empty())
        return false;
    configureTracing(path);
    return true;
}();

} // namespace

namespace detail
{

uint32_t
threadId()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t tid =
        next.fetch_add(1, std::memory_order_relaxed) + 1;
    return tid;
}

uint64_t
nowNs()
{
    if (__builtin_expect(gClockFn != nullptr, 0))
        return gClockFn();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
emitSpan(const char *name, const char *cat, uint64_t beginNs,
         uint64_t endNs, std::string argsJson)
{
    if (!gEnabled)
        return;
    appendEvent(name, cat, 'X', beginNs,
                endNs >= beginNs ? endNs - beginNs : 0, true,
                argsJson);
}

void
emitInstant(const char *name, const char *cat, std::string argsJson)
{
    if (!gEnabled)
        return;
    appendEvent(name, cat, 'i', nowNs(), 0, false, argsJson);
}

} // namespace detail

Args &
Args::add(const char *k, const std::string &value)
{
    key(k);
    body_ += '"';
    body_ += json::escape(value);
    body_ += '"';
    return *this;
}

Args &
Args::add(const char *k, const char *value)
{
    return add(k, std::string(value));
}

Args &
Args::add(const char *k, double value)
{
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    body_ += buf;
    return *this;
}

Args &
Args::add(const char *k, uint64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

Args &
Args::add(const char *k, int value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

void
Args::key(const char *k)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"';
    body_ += k;
    body_ += "\":";
}

void
configureTracing(const std::string &mergedPath)
{
    ShardSink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.armLocked(mergedPath, detail::nowNs());
}

void
disableTracing()
{
    ShardSink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.disarmLocked();
}

void
flushTrace()
{
    ShardSink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (detail::gEnabled)
        s.flushLocked(detail::nowNs());
}

void
setProcessName(const std::string &name)
{
    if (!enabled())
        return;
    appendEvent("process_name", "__metadata", 'M', detail::nowNs(), 0,
                false, Args().add("name", name).str());
}

void
setClockForTest(uint64_t (*clock)())
{
    gClockFn = clock;
}

void
setRequestContext(const std::string &rid)
{
    RidState &r = ridState();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.rid = rid;
    r.ridEscaped = json::escape(rid);
}

std::string
requestContext()
{
    RidState &r = ridState();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.rid;
}

MergeStats
mergeTrace()
{
    // First rid-stamped span of every (pid, tid): the anchor points
    // the generated flow events bind to (DESIGN.md §14).
    struct FlowAnchor
    {
        double ts = 0;  ///< span start (µs)
        double mid = 0; ///< span midpoint (µs) — inside the slice
        int pid = 0;
        int tid = 0;
    };
    std::map<std::string, std::map<std::pair<int, int>, FlowAnchor>>
        flowAnchors;
    auto accept = [&](const json::Value &ev) {
        const json::Value *ph = ev.find("ph");
        if (!ev.find("name") || !ph)
            return false;
        const json::Value *rid = ev.find("rid");
        const json::Value *pid = ev.find("pid");
        const json::Value *tid = ev.find("tid");
        if (rid && rid->type == json::Value::Type::String &&
            !rid->str.empty() && ph->type == json::Value::Type::String &&
            ph->str == "X" && pid &&
            pid->type == json::Value::Type::Number && tid &&
            tid->type == json::Value::Type::Number) {
            const json::Value *dur = ev.find("dur");
            const double ts = ev.find("ts")->number;
            const double durUs =
                dur && dur->type == json::Value::Type::Number
                    ? dur->number
                    : 0;
            const std::pair<int, int> key{static_cast<int>(pid->number),
                                          static_cast<int>(tid->number)};
            auto &anchor = flowAnchors[rid->str];
            auto found = anchor.find(key);
            if (found == anchor.end() || ts < found->second.ts)
                anchor[key] = {ts, ts + durUs / 2, key.first, key.second};
        }
        return true;
    };
    // Generate Perfetto flow events per request id: bind the first
    // rid-stamped span of each (pid, tid) into one arrowed chain
    // ("s" -> "t"... -> "f"), anchored at span midpoints so every
    // flow point lands inside its slice. A rid seen by only one
    // (pid, tid) has nothing to connect.
    size_t flowEvents = 0;
    auto addFlows = [&](std::vector<ShardSink::Line> &lines) {
        for (const auto &[rid, groups] : flowAnchors) {
            if (groups.size() < 2)
                continue;
            std::vector<FlowAnchor> chain;
            chain.reserve(groups.size());
            for (const auto &[key, anchor] : groups)
                chain.push_back(anchor);
            std::sort(chain.begin(), chain.end(),
                      [](const FlowAnchor &a, const FlowAnchor &b) {
                          return a.mid < b.mid;
                      });
            const std::string escaped = json::escape(rid);
            char idHex[24];
            std::snprintf(idHex, sizeof(idHex), "%016llx",
                          static_cast<unsigned long long>(fnv1a(rid)));
            for (size_t i = 0; i < chain.size(); ++i) {
                const char ph =
                    i == 0 ? 's' : (i + 1 == chain.size() ? 'f' : 't');
                char line[256];
                const int n = std::snprintf(
                    line, sizeof(line),
                    "{\"name\":\"request\",\"cat\":\"flow\","
                    "\"ph\":\"%c\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
                    "\"id\":\"0x%s\"%s,\"args\":{\"rid\":\"%s\"}}",
                    ph, chain[i].mid, chain[i].pid, chain[i].tid, idHex,
                    ph == 'f' ? ",\"bp\":\"e\"" : "", escaped.c_str());
                lines.push_back(
                    {chain[i].mid,
                     std::string(line, static_cast<size_t>(n))});
                ++flowEvents;
            }
        }
    };
    const ShardSink::MergeCounts counts =
        sink().merge(detail::nowNs(), accept, addFlows);

    MergeStats stats;
    stats.shards = counts.shards;
    stats.events = counts.lines;
    stats.flowEvents = flowEvents;
    stats.tornShards = counts.tornShards;
    stats.tornLines = counts.tornLines;
    if (!counts.published)
        return stats;
    Metrics &metrics = Metrics::global();
    metrics.counter("trace.events_merged").add(stats.events);
    if (stats.flowEvents)
        metrics.counter("trace.flow_events").add(stats.flowEvents);
    inform("trace: merged %zu events from %zu shards into %s%s",
           stats.events, stats.shards, counts.path.c_str(),
           stats.tornShards || stats.tornLines
               ? " (torn shards skipped)"
               : "");
    return stats;
}

} // namespace obs
} // namespace xps
