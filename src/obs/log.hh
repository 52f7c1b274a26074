/**
 * @file
 * The one logger (DESIGN.md §14). util/logging's inform(), verbose(),
 * warn(), fatal() and panic() and the field-rich events subsystems
 * emit at their seams are all events of this log, at levels
 * debug < info < warn < error, under one floor: XPS_LOG_LEVEL
 * (default info).
 *
 * stderr: inform (info), verbose (debug, printed "[verb]"), warn, and
 * fatal / panic (error) print "[kind] msg" when their level passes
 * the floor. fatal and panic always print, then exit(1) / abort().
 *
 * JSON stream: when XPS_LOG_JSON names a file (or configureLogging()
 * is called), every process also appends each event that passes the
 * floor — one JSON object per line — to a per-pid shard
 * `<log>.shards/log.<pid>.jsonl`, through the obs/shard_sink.hh sink
 * the tracer uses too. At exit the process that armed logging merges
 * every shard into one timestamp-sorted JSONL stream at XPS_LOG_JSON,
 * counting-and-skipping torn tails exactly like the trace merger: a
 * worker killed mid-write can tear at most its own last line, never
 * the merged output. util/logging's messages land in the stream as
 * component "log".
 *
 * Event schema (one line):
 *   {"ts": <monotonic µs, shared with the trace clock>,
 *    "level": "debug|info|warn|error", "component": "serve|pool|...",
 *    "msg": "...", "pid": N, "tid": N,
 *    "rid": "..."          — when a request context is set (tracer.hh)
 *    "fields": {...}}      — optional structured payload
 *
 * Hot-path discipline: with the JSON stream disarmed every event()
 * call site costs one predicted branch on a process-global flag
 * (obs::log::enabled()); messages and fields are built lazily behind
 * that branch.
 *
 * Rate limiting: at most 200 JSON events per (component, level) per
 * second. Excess events are counted (log.suppressed) and summarized
 * by one warn event per window — when the window rolls, and at the
 * latest when the log flushes for merge or exit — so a crash loop
 * cannot turn the log into its own outage.
 */

#ifndef XPS_OBS_LOG_HH
#define XPS_OBS_LOG_HH

#include <cstddef>
#include <string>

#include "obs/tracer.hh" // Args: shared lazy field builder

namespace xps
{
namespace obs
{
namespace log
{

/** Severity, in ascending order; XPS_LOG_LEVEL is the floor. */
enum class Level
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
};

namespace detail
{
/** True iff the JSON stream is armed; the only cost when off. */
extern bool gEnabled;
/** The level floor as an int (events below it are dropped). */
extern int gMinLevel;

void emit(Level level, const char *component, const std::string &msg,
          std::string fieldsJson);

/** One util/logging message that passed the floor: "[tag] msg" to
 *  stderr, plus a component "log" event when the stream is armed. */
void report(Level level, const char *tag, const std::string &msg);

/** report() at error level, flush the stream, then abort() or
 *  exit(1). */
[[noreturn]] void die(const char *tag, const std::string &msg,
                      bool abortProcess);
} // namespace detail

/** True iff the JSON stream is armed (one predicted branch when
 *  off). */
inline bool
enabled()
{
    return __builtin_expect(detail::gEnabled, 0);
}

/** Does an event at `level` pass the floor (stderr and JSON alike)? */
inline bool
passesFloor(Level level)
{
    return static_cast<int>(level) >= detail::gMinLevel;
}

/** Record one structured event. No-op (one predicted branch) when
 *  logging is off or the level is below the floor. */
inline void
event(Level level, const char *component, const std::string &msg)
{
    if (enabled() && passesFloor(level))
        detail::emit(level, component, msg, std::string());
}

/** Record one structured event with lazily built fields: `fieldsFn`
 *  (returning obs::Args or a JSON-object string) only runs when the
 *  event will actually be recorded. */
template <typename FieldsFn>
inline void
event(Level level, const char *component, const std::string &msg,
      FieldsFn &&fieldsFn)
{
    if (enabled() && passesFloor(level))
        detail::emit(level, component, msg,
                     obs::detail::toJson(fieldsFn()));
}

/** Outcome of merging log shards into the final stream. */
struct LogMergeStats
{
    size_t shards = 0;     ///< shard files merged
    size_t lines = 0;      ///< events in the merged stream
    size_t tornShards = 0; ///< shard files skipped entirely
    size_t tornLines = 0;  ///< invalid trailing/interior lines skipped
};

/**
 * Arm the JSON stream programmatically (tools and tests; production
 * arms from XPS_LOG_JSON at startup) and set the floor to `minLevel`.
 * Points the shard directory at `<mergedPath>.shards/` and marks this
 * process as the merger-at-exit.
 */
void configureLogging(const std::string &mergedPath,
                      Level minLevel = Level::Info);

/** Disarm logging and drop any unflushed events (tests). */
void disableLogging();

/** Summarize pending rate-limit windows and write this process's
 *  buffered events to its shard file. Called by the worker-pool child
 *  right before _exit() and at exit; buffer pressure flushes too. */
void flushLog();

/**
 * Summarize pending rate-limit windows, flush and disarm, then merge
 * every shard under the shard directory into the merged JSONL stream
 * (timestamp-sorted) and remove the shard directory. Torn shards and
 * lines are counted and skipped. Runs automatically at exit in the
 * arming process.
 */
LogMergeStats mergeLog();

} // namespace log
} // namespace obs
} // namespace xps

#endif // XPS_OBS_LOG_HH
