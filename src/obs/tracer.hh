/**
 * @file
 * Span-based tracing for the exploration pipeline (DESIGN.md §10).
 *
 * When XPS_TRACE_JSON names a file (or configureTracing() is called),
 * every process of a run records trace events — spans with a start
 * and a duration, instant events, and process-name metadata — into a
 * per-pid shard file `<trace>.shards/shard.<pid>.jsonl`, one JSON
 * event per line in the Chrome trace-event schema. At exit the
 * process that armed tracing merges every shard into one
 * chrome://tracing / Perfetto-loadable timeline at XPS_TRACE_JSON,
 * sorted by timestamp and keyed by real pid/tid — a quarantined
 * worker's last flushed spans land next to the supervisor's kill and
 * retry events.
 *
 * Timestamps come from the monotonic clock (CLOCK_MONOTONIC via
 * steady_clock), whose epoch is shared by every process of the fork
 * tree, so merged shards order correctly without any cross-process
 * handshake. Shards are append-only and line-framed: a worker killed
 * mid-write tears at most its last line, and the merger validates
 * every line (obs/json.hh) and skips torn tails — and whole torn
 * shards — rather than corrupting the merged timeline.
 *
 * Hot-path discipline (the util/fault pattern): with tracing disabled
 * every instrumentation point costs one predicted branch on a
 * process-global flag — perf_microbench is unchanged. Args strings
 * are built lazily, only when the branch is taken.
 *
 * Request-scoped tracing (DESIGN.md §14): setRequestContext() /
 * RequestScope stamp every subsequent event of this process with a
 * request id ("rid"), and the merger emits Perfetto flow events
 * ("ph":"s"/"t"/"f") binding the first rid-stamped span of each
 * process into one arrowed flow — a serve query is followable from
 * the client through the daemon into its forked worker.
 *
 * Shards are written by the obs/shard_sink.hh sink the structured log
 * uses too: a 64 KiB per-process buffer that also drains on a
 * ~250 ms cadence, so a hung worker's recent spans reach its shard
 * before the SIGKILL. If the shard becomes unwritable, events are
 * counted into trace.dropped_spans and a single warning is emitted —
 * tracing never takes down the run, but it never drops silently
 * either. A merge that cannot publish a complete file keeps the shards
 * and counts trace.merge_failed.
 *
 * Knob: XPS_TRACE_JSON (merged output path; arms tracing). A process
 * that joins a trace owned by a longer-lived process (xps-client
 * against a daemon) calls joinSession() and only flushes at exit.
 */

#ifndef XPS_OBS_TRACER_HH
#define XPS_OBS_TRACER_HH

#include <cstdint>
#include <string>

namespace xps
{
namespace obs
{

namespace detail
{
/** True iff tracing is armed; the only cost of a disabled site. */
extern bool gEnabled;

/** Monotonic nanoseconds (or the test clock shim). */
uint64_t nowNs();

/** Small per-process thread id shared by spans and log events. */
uint32_t threadId();

/** Record a completed span. `argsJson` is "" or a JSON object. */
void emitSpan(const char *name, const char *cat, uint64_t beginNs,
              uint64_t endNs, std::string argsJson);

/** Record an instant event. */
void emitInstant(const char *name, const char *cat,
                 std::string argsJson);
} // namespace detail

/** True iff tracing is armed (one predicted branch when off). */
inline bool
enabled()
{
    return __builtin_expect(detail::gEnabled, 0);
}

/** Incrementally build the JSON args object of an event. Build one
 *  only under `if (obs::enabled())` or a lazy-args lambda. */
class Args
{
  public:
    Args &add(const char *key, const std::string &value);
    Args &add(const char *key, const char *value);
    Args &add(const char *key, double value);
    Args &add(const char *key, uint64_t value);
    Args &add(const char *key, int value);
    std::string str() const { return "{" + body_ + "}"; }

  private:
    void key(const char *k);
    std::string body_;
};

namespace detail
{
/** Args -> "{...}" / pass a prebuilt JSON object string through: what
 *  a lazy args (or log fields) function may return. */
inline std::string
toJson(const Args &args)
{
    return args.str();
}
inline std::string
toJson(std::string json)
{
    return json;
}
} // namespace detail

/**
 * RAII span: measures construction-to-destruction and records one
 * complete ("ph":"X") event. The lazy-args overload only invokes
 * `argsFn` (returning Args or a JSON-object string) when tracing is
 * armed.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *cat)
        : name_(name), cat_(cat), armed_(enabled()),
          begin_(armed_ ? detail::nowNs() : 0)
    {
    }

    template <typename ArgsFn>
    ScopedSpan(const char *name, const char *cat, ArgsFn &&argsFn)
        : ScopedSpan(name, cat)
    {
        if (armed_)
            args_ = detail::toJson(argsFn());
    }

    ~ScopedSpan()
    {
        if (armed_)
            detail::emitSpan(name_, cat_, begin_, detail::nowNs(),
                             std::move(args_));
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    const char *cat_;
    bool armed_;
    uint64_t begin_;
    std::string args_;
};

/** Record an instant event (no-op unless tracing is armed). */
inline void
instant(const char *name, const char *cat)
{
    if (enabled())
        detail::emitInstant(name, cat, std::string());
}

/** Instant event with lazily built args. */
template <typename ArgsFn>
inline void
instant(const char *name, const char *cat, ArgsFn &&argsFn)
{
    if (enabled())
        detail::emitInstant(name, cat, argsFn().str());
}

/**
 * Set the ambient request id: every event this process records from
 * now on carries a top-level "rid" field (and structured log events
 * pick it up too). "" clears. Cheap; safe with tracing disarmed.
 */
void setRequestContext(const std::string &rid);

/** The ambient request id ("" when none). */
std::string requestContext();

/** RAII request context: set on construction, restore the previous
 *  context on destruction. The serve daemon scopes each request's
 *  handling; workers set it once after fork. */
class RequestScope
{
  public:
    explicit RequestScope(const std::string &rid)
        : prev_(requestContext())
    {
        setRequestContext(rid);
    }

    ~RequestScope() { setRequestContext(prev_); }

    RequestScope(const RequestScope &) = delete;
    RequestScope &operator=(const RequestScope &) = delete;

  private:
    std::string prev_;
};

/** Outcome of merging trace shards into the final timeline. */
struct MergeStats
{
    size_t shards = 0;     ///< shard files merged
    size_t events = 0;     ///< events in the merged timeline
                           ///< (including generated flow events)
    size_t flowEvents = 0; ///< flow events generated from rids
    size_t tornShards = 0; ///< shard files skipped entirely
    size_t tornLines = 0;  ///< invalid trailing/interior lines skipped
};

/**
 * Arm tracing programmatically (tools and tests; production arms from
 * XPS_TRACE_JSON at startup). Resets per-process buffers, points the
 * shard directory at `<mergedPath>.shards/`, and marks this process
 * as the merger-at-exit.
 */
void configureTracing(const std::string &mergedPath);

/** Disarm tracing and drop any unflushed events (tests). */
void disableTracing();

/** Write this process's buffered events to its shard file. Called
 *  automatically on buffer pressure and by the worker-pool child
 *  right before _exit(). */
void flushTrace();

/**
 * Flush and disarm, then merge every shard under the shard directory
 * into the merged timeline file and remove the shard directory. Torn
 * shards and torn lines are counted and skipped. Runs automatically
 * at exit in the process that armed tracing; exposed for tests and
 * tools.
 */
MergeStats mergeTrace();

/** Join a session whose trace and log merges another process owns:
 *  this process keeps writing its shards but only flushes them at
 *  exit (xps-client against a daemon). */
void joinSession();

/** Label this process in the merged timeline (a "process_name"
 *  metadata event; the supervisor and each worker call it). */
void setProcessName(const std::string &name);

/** Install a deterministic clock for tests (nullptr restores the
 *  monotonic clock). The function returns nanoseconds. */
void setClockForTest(uint64_t (*clock)());

} // namespace obs
} // namespace xps

#endif // XPS_OBS_TRACER_HH
