/**
 * @file
 * The per-process JSONL shard sink under both the span tracer
 * (obs/tracer.hh) and the structured log (obs/log.hh); internal to
 * xps_obs (DESIGN.md §10, §14).
 *
 * Armed with a merged-output path, a sink gives every process of the
 * run — the arming process and each forked child — its own append-only
 * shard `<path>.shards/<prefix><pid>.jsonl`. Serialized lines are
 * buffered and drain on buffer pressure and on a ~250 ms cadence, so a
 * SIGKILLed worker loses at most a recent tail. A forked child drops
 * the inherited descriptor and buffer and starts a shard of its own.
 *
 * At exit the owning process — the one that armed the sink, unless it
 * joined a session another process owns (obs::joinSession(), defined
 * here) — merges;
 * every other process flushes. A merge re-parses every shard line: a
 * line that is not a JSON object with a numeric "ts" that the owner's
 * schema check accepts is a torn tail, counted and skipped, and a
 * shard with no valid line is skipped whole. The ts-sorted lines are
 * written tmp + rename, and only a completely written file replaces
 * the merged path and retires the shards; a short write or failed
 * close keeps the shards for the next attempt.
 *
 * Counters: <name>.shards_merged, <name>.shards_torn,
 * <name>.lines_torn, <name>.merge_failed and the sink's drop counter.
 * Diagnostics go straight to stderr: the structured log itself sits on
 * a sink, so reporting through it could re-enter the sink's lock.
 */

#ifndef XPS_OBS_SHARD_SINK_HH
#define XPS_OBS_SHARD_SINK_HH

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace xps
{
namespace obs
{
namespace detail
{

class ShardSink
{
  public:
    /** What the owner (tracer or log) plugs into the lifecycle. */
    struct Spec
    {
        const char *name;        ///< "trace" / "log": counters, stderr
        const char *shardPrefix; ///< shard file name prefix
        const char *head;        ///< merged file: head, lines joined
        const char *sep;         ///< by sep, a final newline, tail
        const char *tail;
        size_t bufferBytes;      ///< buffered bytes before a flush
        const char *dropCounter; ///< lines that never reached a shard
        bool *enabled;           ///< the owner's one-branch flag
        void (*merge)();         ///< exit action of the owning process
        void (*flush)();         ///< exit action of every other one
        void (*afterFork)();     ///< extra child-side reset, or null
    };

    /** One line of the merged output and its sort key (µs). */
    struct Line
    {
        double ts;
        std::string text;
    };

    /** What one merge saw. */
    struct MergeCounts
    {
        size_t shards = 0;     ///< shard files merged
        size_t lines = 0;      ///< lines in the merged output
        size_t tornShards = 0; ///< shard files skipped entirely
        size_t tornLines = 0;  ///< invalid lines skipped
        std::string path;      ///< the merged path
        bool published = false;
    };

    explicit ShardSink(const Spec &spec) : spec_(spec) {}

    /** Guards all sink state and whatever the owner keeps beside it
     *  (the log's rate windows). */
    std::mutex mutex;

    /** Point at `mergedPath`, drop buffered lines, make this process
     *  the owner and arm. Caller holds `mutex`. */
    void armLocked(const std::string &mergedPath, uint64_t nowNs);

    /** Disarm and drop buffered lines. Caller holds `mutex`. */
    void disarmLocked();

    /** Buffer one serialized line ending in '\n'; flush on pressure
     *  or cadence. Once the shard is unwritable the line is counted
     *  as dropped instead. Caller holds `mutex`. */
    void appendLocked(const std::string &line, uint64_t tsNs);

    /** Write the buffer to this process's shard. Caller holds
     *  `mutex`. */
    void flushLocked(uint64_t nowNs);

    /**
     * Flush and disarm, then merge every shard into the merged path.
     * `accept` applies the owner's schema to each parsed line (false =
     * torn); `extra`, when set, may append generated lines before the
     * ts sort. Takes `mutex` itself.
     */
    MergeCounts merge(
        uint64_t nowNs,
        const std::function<bool(const json::Value &)> &accept,
        const std::function<void(std::vector<Line> &)> &extra = {});

  private:
    void dropLocked(size_t lines, const char *why);
    static void childAfterFork();
    static void atExit();

    Spec spec_;
    std::string mergedPath_;
    std::string shardDir_;
    std::string pending_; ///< serialized lines not yet in the shard
    uint64_t lastFlushNs_ = 0;
    int fd_ = -1;
    pid_t originPid_ = 0; ///< the process that merges at exit
    bool writeFailed_ = false;
    bool dropWarned_ = false;
    bool registered_ = false;
};

} // namespace detail
} // namespace obs
} // namespace xps

#endif // XPS_OBS_SHARD_SINK_HH
