#include "obs/shard_sink.hh"

#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "obs/tracer.hh"
#include "util/atomic_file.hh"
#include "util/metrics.hh"

namespace xps
{
namespace obs
{
namespace detail
{

namespace
{

/** Every sink ever armed, in arming order: one fork hook and one exit
 *  hook serve them all. */
std::mutex gRegistryMutex;
bool gJoined = false; ///< joinSession(): never the merge owner

std::vector<ShardSink *> &
registry()
{
    static auto *sinks = new std::vector<ShardSink *>();
    return *sinks;
}

/** Buffered lines drain to the shard at this cadence even under
 *  light load, so a killed worker loses at most a recent tail. */
constexpr uint64_t kFlushIntervalNs = 250ull * 1000 * 1000;

size_t
countLines(const std::string &text, size_t from)
{
    return static_cast<size_t>(
        std::count(text.begin() + static_cast<long>(from), text.end(),
                   '\n'));
}

} // namespace

void
ShardSink::armLocked(const std::string &mergedPath, uint64_t nowNs)
{
    mergedPath_ = mergedPath;
    shardDir_ = mergedPath + ".shards";
    pending_.clear();
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    writeFailed_ = false;
    dropWarned_ = false;
    originPid_ = ::getpid();
    lastFlushNs_ = nowNs;
    if (!registered_) {
        registered_ = true;
        std::lock_guard<std::mutex> lock(gRegistryMutex);
        if (registry().empty()) {
            ::pthread_atfork(nullptr, nullptr, childAfterFork);
            std::atexit(atExit);
        }
        registry().push_back(this);
    }
    *spec_.enabled = true;
}

void
ShardSink::disarmLocked()
{
    *spec_.enabled = false;
    pending_.clear();
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    mergedPath_.clear();
    shardDir_.clear();
}

void
ShardSink::dropLocked(size_t lines, const char *why)
{
    writeFailed_ = true;
    if (lines)
        Metrics::global().counter(spec_.dropCounter).add(lines);
    if (!dropWarned_) {
        dropWarned_ = true;
        std::fprintf(stderr, "[warn] %s: %s; dropping events (see %s)\n",
                     spec_.name, why, spec_.dropCounter);
    }
}

void
ShardSink::appendLocked(const std::string &line, uint64_t tsNs)
{
    if (writeFailed_) {
        dropLocked(1, "shard unwritable");
        return;
    }
    pending_ += line;
    if (pending_.size() >= spec_.bufferBytes ||
        tsNs - lastFlushNs_ >= kFlushIntervalNs)
        flushLocked(tsNs);
}

void
ShardSink::flushLocked(uint64_t nowNs)
{
    lastFlushNs_ = nowNs;
    if (pending_.empty())
        return;
    if (fd_ < 0) {
        std::error_code ec;
        std::filesystem::create_directories(shardDir_, ec);
        const std::string shard = shardDir_ + "/" + spec_.shardPrefix +
                                  std::to_string(::getpid()) + ".jsonl";
        fd_ = ::open(shard.c_str(),
                     O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
        if (fd_ < 0) {
            // Observability must never take down the run.
            const std::string why = "cannot open shard " + shard + ": " +
                                    std::strerror(errno);
            dropLocked(countLines(pending_, 0), why.c_str());
            pending_.clear();
            return;
        }
    }
    size_t off = 0;
    while (off < pending_.size()) {
        const ssize_t n =
            ::write(fd_, pending_.data() + off, pending_.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const std::string why =
                std::string("shard write failed: ") + std::strerror(errno);
            dropLocked(countLines(pending_, off), why.c_str());
            break;
        }
        off += static_cast<size_t>(n);
    }
    pending_.clear();
}

ShardSink::MergeCounts
ShardSink::merge(uint64_t nowNs,
                 const std::function<bool(const json::Value &)> &accept,
                 const std::function<void(std::vector<Line> &)> &extra)
{
    MergeCounts counts;
    std::string mergedPath, shardDir;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!*spec_.enabled)
            return counts;
        flushLocked(nowNs);
        counts.path = mergedPath = mergedPath_;
        shardDir = shardDir_;
        // Disarm first: the merge's own report and later exit hooks
        // must not recreate the shard directory about to be retired.
        disarmLocked();
    }

    std::vector<Line> lines;
    std::error_code ec;
    std::filesystem::directory_iterator it(shardDir, ec);
    if (!ec) {
        std::vector<std::filesystem::path> shards;
        for (const auto &entry : it) {
            if (entry.path().filename().string().rfind(
                    spec_.shardPrefix, 0) == 0)
                shards.push_back(entry.path());
        }
        std::sort(shards.begin(), shards.end());
        for (const auto &shard : shards) {
            std::string content;
            if (!readFile(shard.string(), content)) {
                ++counts.tornShards;
                continue;
            }
            size_t valid = 0;
            size_t pos = 0;
            while (pos < content.size()) {
                size_t nl = content.find('\n', pos);
                if (nl == std::string::npos)
                    nl = content.size();
                std::string text = content.substr(pos, nl - pos);
                pos = nl + 1;
                if (text.empty())
                    continue;
                // Count-and-skip, never corrupt: a line must parse as
                // a complete event or it is the torn tail of a killed
                // writer.
                json::Value ev;
                const json::Value *ts = nullptr;
                if (!json::parse(text, ev) || !ev.isObject() ||
                    !(ts = ev.find("ts")) ||
                    ts->type != json::Value::Type::Number ||
                    !accept(ev)) {
                    ++counts.tornLines;
                    continue;
                }
                lines.push_back({ts->number, std::move(text)});
                ++valid;
            }
            ++(valid ? counts.shards : counts.tornShards);
        }
    }
    if (extra)
        extra(lines);
    std::stable_sort(lines.begin(), lines.end(),
                     [](const Line &a, const Line &b) {
                         return a.ts < b.ts;
                     });
    counts.lines = lines.size();

    std::string out = spec_.head;
    for (size_t i = 0; i < lines.size(); ++i) {
        out += lines[i].text;
        out += i + 1 < lines.size() ? spec_.sep : "\n";
    }
    out += spec_.tail;

    // Written tmp + rename by hand, not through atomicWriteFile, whose
    // own io span would re-enter the tracer mid-merge. Only a complete
    // file may replace the merged path and retire the shards.
    Metrics &metrics = Metrics::global();
    const std::string name = spec_.name;
    const std::string tmp =
        mergedPath + ".tmp." + std::to_string(::getpid());
    FILE *f = std::fopen(tmp.c_str(), "wb");
    bool ok = f && std::fwrite(out.data(), 1, out.size(), f) == out.size();
    int err = ok ? 0 : errno;
    if (f && std::fclose(f) != 0 && ok) {
        ok = false;
        err = errno;
    }
    if (ok && std::rename(tmp.c_str(), mergedPath.c_str()) != 0) {
        ok = false;
        err = errno;
    }
    if (!ok) {
        std::fprintf(stderr,
                     "[warn] %s: cannot publish %s: %s; shards kept in "
                     "%s\n",
                     spec_.name, mergedPath.c_str(), std::strerror(err),
                     shardDir.c_str());
        std::remove(tmp.c_str());
        metrics.counter(name + ".merge_failed").add();
        return counts;
    }
    std::filesystem::remove_all(shardDir, ec);
    counts.published = true;
    metrics.counter(name + ".shards_merged").add(counts.shards);
    if (counts.tornShards)
        metrics.counter(name + ".shards_torn").add(counts.tornShards);
    if (counts.tornLines)
        metrics.counter(name + ".lines_torn").add(counts.tornLines);
    return counts;
}

/**
 * In a freshly forked child the inherited shard descriptors and
 * buffered lines belong to the parent, which still holds them; writing
 * either from here would duplicate or interleave. No locking: the
 * child is single-threaded by the worker-pool fork contract, and the
 * parent's mutex state is stale here.
 */
void
ShardSink::childAfterFork()
{
    for (ShardSink *sink : registry()) {
        if (sink->fd_ >= 0)
            ::close(sink->fd_);
        sink->fd_ = -1;
        sink->pending_.clear();
        sink->writeFailed_ = false;
        sink->dropWarned_ = false;
        if (sink->spec_.afterFork)
            sink->spec_.afterFork();
    }
}

/** One owner-at-exit rule for every sink: the arming process merges,
 *  every other process (forked children, a joined client) flushes.
 *  Sinks exit in reverse arming order, like separate atexit hooks. */
void
ShardSink::atExit()
{
    std::vector<ShardSink *> sinks;
    bool joined = false;
    {
        std::lock_guard<std::mutex> lock(gRegistryMutex);
        sinks = registry();
        joined = gJoined;
    }
    for (auto it = sinks.rbegin(); it != sinks.rend(); ++it) {
        const Spec &spec = (*it)->spec_;
        if (!*spec.enabled)
            continue;
        if (!joined && ::getpid() == (*it)->originPid_)
            spec.merge();
        else
            spec.flush();
    }
}

} // namespace detail

void
joinSession()
{
    std::lock_guard<std::mutex> lock(detail::gRegistryMutex);
    detail::gJoined = true;
}

} // namespace obs
} // namespace xps
