#include "util/metrics.hh"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

#include "obs/json.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace xps
{

namespace
{

/** The process the program started in: the only one that dumps;
 *  forked workers never do. */
const pid_t gOriginPid = ::getpid();

void
dumpGlobalAtExit()
{
    const std::string path = envString("XPS_METRICS_JSON", "");
    if (!path.empty() && ::getpid() == gOriginPid)
        Metrics::global().writeJson(path);
}

} // namespace

double
Histogram::meanNs() const
{
    const uint64_t n = count();
    if (n == 0)
        return 0.0;
    return static_cast<double>(sum_.load(std::memory_order_relaxed)) /
           static_cast<double>(n);
}

uint64_t
Histogram::bucketLowNs(size_t index)
{
    if (index < 8)
        return index;
    const int e = static_cast<int>((index - 8) / 4) + 3;
    const uint64_t sub = (index - 8) & 3;
    return (1ull << e) + sub * (1ull << (e - 2));
}

uint64_t
Histogram::quantileNs(double q) const
{
    const uint64_t n = count();
    if (n == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the q-th sample (1-based), then walk the cumulative
    // bucket counts until it is covered.
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(q * static_cast<double>(n) + 0.5));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        seen += buckets_[i].load(std::memory_order_relaxed);
        if (seen >= rank) {
            const uint64_t lo = bucketLowNs(i);
            const uint64_t hi = i + 1 < kBuckets
                                    ? bucketLowNs(i + 1)
                                    : lo;
            // The top bucket's midpoint can overshoot the largest
            // recorded sample; never report a quantile above the max.
            return std::min(lo + (hi - lo) / 2, maxNs());
        }
    }
    return maxNs();
}

void
Histogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

Metrics &
Metrics::global()
{
    static Metrics *instance = [] {
        auto *m = new Metrics();
        if (!envString("XPS_METRICS_JSON", "").empty())
            std::atexit(dumpGlobalAtExit);
        return m;
    }();
    return *instance;
}

Histogram &
Metrics::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return histograms_[name];
}

Counter &
Metrics::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_[name];
}

void
Metrics::addSeconds(const std::string &name, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    timers_[name] += seconds;
}

Metrics::Snapshot
Metrics::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto &[name, counter] : counters_)
        snap.counters.emplace_back(name, counter.get());
    snap.timers.reserve(timers_.size());
    for (const auto &[name, seconds] : timers_)
        snap.timers.emplace_back(name, seconds);
    snap.histograms.reserve(histograms_.size());
    for (const auto &[name, histogram] : histograms_) {
        if (histogram.count() == 0)
            continue; // registered but never fed: not worth a row
        HistogramSummary summary;
        summary.count = histogram.count();
        summary.p50Ns = histogram.quantileNs(0.50);
        summary.p95Ns = histogram.quantileNs(0.95);
        summary.p99Ns = histogram.quantileNs(0.99);
        summary.maxNs = histogram.maxNs();
        summary.meanNs = histogram.meanNs();
        snap.histograms.emplace_back(name, summary);
    }
    return snap;
}

std::string
Metrics::toJson() const
{
    const Snapshot snap = snapshot();
    std::ostringstream out;
    out << "{\n  \"counters\": {";
    for (size_t i = 0; i < snap.counters.size(); ++i) {
        out << (i ? ",\n    " : "\n    ") << '"'
            << snap.counters[i].first << "\": "
            << snap.counters[i].second;
    }
    out << (snap.counters.empty() ? "" : "\n  ") << "},\n"
        << "  \"timers_seconds\": {";
    char buf[64];
    for (size_t i = 0; i < snap.timers.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.6f", snap.timers[i].second);
        out << (i ? ",\n    " : "\n    ") << '"' << snap.timers[i].first
            << "\": " << buf;
    }
    out << (snap.timers.empty() ? "" : "\n  ") << "}";
    if (!snap.histograms.empty()) {
        out << ",\n  \"histograms_ns\": {";
        for (size_t i = 0; i < snap.histograms.size(); ++i) {
            const HistogramSummary &h = snap.histograms[i].second;
            std::snprintf(buf, sizeof(buf), "%.1f", h.meanNs);
            out << (i ? ",\n    " : "\n    ") << '"'
                << snap.histograms[i].first << "\": {\"count\": "
                << h.count << ", \"p50\": " << h.p50Ns
                << ", \"p95\": " << h.p95Ns << ", \"p99\": " << h.p99Ns
                << ", \"max\": " << h.maxNs
                << ", \"mean\": " << buf << '}';
        }
        out << "\n  }";
    }
    out << "\n}\n";
    return out.str();
}

void
Metrics::reset()
{
    // Zero in place rather than erase: cached Counter references must
    // stay valid across a reset.
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, counter] : counters_)
        counter.reset();
    for (auto &[name, histogram] : histograms_)
        histogram.reset();
    timers_.clear();
}

void
Metrics::writeJson(const std::string &path) const
{
    atomicWriteFile(path, toJson());
}

std::string
Metrics::serializeRollup() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, counter] : counters_) {
        const uint64_t v = counter.get();
        if (v == 0)
            continue;
        out << (first ? "" : ",") << '"' << obs::json::escape(name)
            << "\":" << v;
        first = false;
    }
    out << "},\"timers\":{";
    first = true;
    char buf[64];
    for (const auto &[name, seconds] : timers_) {
        std::snprintf(buf, sizeof(buf), "%.9f", seconds);
        out << (first ? "" : ",") << '"' << obs::json::escape(name)
            << "\":" << buf;
        first = false;
    }
    out << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        if (h.count() == 0)
            continue;
        out << (first ? "" : ",") << '"' << obs::json::escape(name)
            << "\":{\"sum\":" << h.sumNs() << ",\"max\":" << h.maxNs()
            << ",\"buckets\":{";
        bool firstBucket = true;
        for (size_t i = 0; i < Histogram::kBuckets; ++i) {
            const uint64_t n = h.bucketCount(i);
            if (n == 0)
                continue;
            out << (firstBucket ? "" : ",") << '"' << i << "\":" << n;
            firstBucket = false;
        }
        out << "}}";
        first = false;
    }
    out << "}}";
    return out.str();
}

bool
Metrics::mergeRollup(const std::string &payload)
{
    obs::json::Value root;
    if (!obs::json::parse(payload, root) || !root.isObject())
        return false;
    const obs::json::Value *counters = root.find("counters");
    const obs::json::Value *timers = root.find("timers");
    const obs::json::Value *histograms = root.find("histograms");
    if (counters && counters->isObject()) {
        for (const auto &[name, v] : counters->fields)
            if (v.type == obs::json::Value::Type::Number &&
                v.number > 0)
                counter(name).add(static_cast<uint64_t>(v.number));
    }
    if (timers && timers->isObject()) {
        for (const auto &[name, v] : timers->fields)
            if (v.type == obs::json::Value::Type::Number)
                addSeconds(name, v.number);
    }
    if (histograms && histograms->isObject()) {
        for (const auto &[name, v] : histograms->fields) {
            if (!v.isObject())
                continue;
            Histogram &h = histogram(name);
            h.absorbSum(static_cast<uint64_t>(v.numberOr("sum", 0)));
            h.noteMax(static_cast<uint64_t>(v.numberOr("max", 0)));
            const obs::json::Value *buckets = v.find("buckets");
            if (buckets && buckets->isObject())
                for (const auto &[idx, n] : buckets->fields)
                    if (n.type == obs::json::Value::Type::Number &&
                        n.number > 0)
                        h.absorbBucket(
                            static_cast<size_t>(
                                std::strtoull(idx.c_str(), nullptr,
                                              10)),
                            static_cast<uint64_t>(n.number));
        }
    }
    return true;
}

namespace
{

/** A metric name as a Prometheus-legal identifier. */
std::string
promName(const std::string &name)
{
    std::string out = "xps_";
    for (char c : name)
        out += (std::isalnum(static_cast<unsigned char>(c)) != 0)
                   ? c
                   : '_';
    return out;
}

} // namespace

std::string
Metrics::toPrometheus() const
{
    const Snapshot snap = snapshot();
    std::ostringstream out;
    for (const auto &[name, value] : snap.counters) {
        const std::string p = promName(name) + "_total";
        out << "# TYPE " << p << " counter\n"
            << p << ' ' << value << '\n';
    }
    char buf[64];
    for (const auto &[name, seconds] : snap.timers) {
        const std::string p = promName(name) + "_seconds_total";
        std::snprintf(buf, sizeof(buf), "%.6f", seconds);
        out << "# TYPE " << p << " counter\n"
            << p << ' ' << buf << '\n';
    }
    for (const auto &[name, h] : snap.histograms) {
        const std::string p = promName(name) + "_ns";
        out << "# TYPE " << p << " summary\n"
            << p << "{quantile=\"0.5\"} " << h.p50Ns << '\n'
            << p << "{quantile=\"0.95\"} " << h.p95Ns << '\n'
            << p << "{quantile=\"0.99\"} " << h.p99Ns << '\n'
            << p << "_sum "
            << static_cast<uint64_t>(h.meanNs *
                                     static_cast<double>(h.count))
            << '\n'
            << p << "_count " << h.count << '\n';
    }
    return out.str();
}

void
Metrics::writePrometheus(const std::string &path) const
{
    atomicWriteFile(path, toPrometheus());
}

} // namespace xps
