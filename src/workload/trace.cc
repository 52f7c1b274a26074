#include "workload/trace.hh"

#include <map>
#include <mutex>
#include <utility>

#include "obs/tracer.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "workload/branch_predictor.hh"
#include "workload/generator.hh"

namespace xps
{

namespace
{

void
hashMix(uint64_t &h, uint64_t v)
{
    // FNV-1a over 64-bit lanes.
    h = (h ^ v) * 0x100000001b3ULL;
}

void
hashMix(uint64_t &h, double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    hashMix(h, bits);
}

} // namespace

uint64_t
profileFingerprint(const WorkloadProfile &p)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : p.name)
        hashMix(h, static_cast<uint64_t>(static_cast<uint8_t>(c)));
    hashMix(h, p.seed);
    hashMix(h, p.fracLoad);
    hashMix(h, p.fracStore);
    hashMix(h, p.fracCondBranch);
    hashMix(h, p.fracJump);
    hashMix(h, p.fracMul);
    hashMix(h, p.meanDepDistance);
    hashMix(h, p.fracTwoSrc);
    hashMix(h, p.loadChaseProb);
    hashMix(h, static_cast<uint64_t>(p.numBranchSites));
    hashMix(h, p.fracBiasedSites);
    hashMix(h, p.biasedTakenProb);
    hashMix(h, p.fracLoopSites);
    hashMix(h, p.meanLoopTrip);
    hashMix(h, p.fracPatternSites);
    hashMix(h, p.siteZipfS);
    hashMix(h, p.workingSetBytes);
    hashMix(h, p.heapZipfS);
    hashMix(h, p.fracHot);
    hashMix(h, p.hotRegionBytes);
    hashMix(h, p.fracStream);
    hashMix(h, static_cast<uint64_t>(p.numStreams));
    hashMix(h, static_cast<uint64_t>(p.streamStrideBytes));
    hashMix(h, p.streamWindowBytes);
    return h;
}

/**
 * The producer behind a trace: the generator and the predictor that
 * scores its branches, advanced together. The registry keeps one
 * paused at each buffer's end, so growing a trace appends exactly the
 * ops and meta bytes a fresh buffer of the larger size would hold.
 */
class TraceProducer
{
  public:
    TraceProducer(const WorkloadProfile &profile, uint64_t stream_id)
        : gen_(profile, stream_id)
    {
    }

    /** Append ops and their meta bytes until `ops` holds `want`. */
    void
    extend(std::vector<MicroOp> &ops, std::vector<uint8_t> &meta,
           uint64_t want)
    {
        while (ops.size() < want) {
            const MicroOp &op = gen_.next();
            uint8_t m = decodeMicroOp(op);
            if (op.cls == OpClass::CondBranch &&
                !predictor_.predict(op.pc, op.taken))
                m |= kMetaMispredict;
            ops.push_back(op);
            meta.push_back(m);
        }
    }

  private:
    SyntheticWorkload gen_;
    BranchPredictor predictor_;
};

TraceBuffer::TraceBuffer(const WorkloadProfile &profile,
                         uint64_t stream_id, uint64_t ops)
    : profileName_(profile.name),
      fingerprint_(profileFingerprint(profile)), streamId_(stream_id)
{
    ops_.reserve(ops);
    meta_.reserve(ops);
    TraceProducer(profile, stream_id).extend(ops_, meta_, ops);
}

TraceBuffer::TraceBuffer(const WorkloadProfile &profile,
                         uint64_t stream_id, const TraceBuffer *prefix,
                         TraceProducer &producer, uint64_t ops)
    : profileName_(profile.name),
      fingerprint_(profileFingerprint(profile)), streamId_(stream_id)
{
    ops_.reserve(ops);
    meta_.reserve(ops);
    if (prefix) {
        ops_.assign(prefix->ops_.begin(), prefix->ops_.end());
        meta_.assign(prefix->meta_.begin(), prefix->meta_.end());
    }
    producer.extend(ops_, meta_, ops);
}

bool
TraceBuffer::operator==(const TraceBuffer &other) const
{
    if (fingerprint_ != other.fingerprint_ ||
        streamId_ != other.streamId_ ||
        ops_.size() != other.ops_.size()) {
        return false;
    }
    for (size_t i = 0; i < ops_.size(); ++i) {
        if (!(ops_[i] == other.ops_[i]))
            return false;
    }
    return true;
}

TraceCursor::TraceCursor(std::shared_ptr<const TraceBuffer> buffer)
    : buffer_(std::move(buffer))
{
    if (!buffer_)
        fatal("TraceCursor: null trace buffer");
    data_ = buffer_->ops().data();
    size_ = buffer_->size();
}

void
TraceCursor::exhausted() const
{
    panic("TraceCursor: trace '%s' (stream %llu) exhausted after "
          "%llu ops; size the buffer with kTraceSlackOps (use "
          "sharedTrace())",
          buffer_->profileName().c_str(),
          static_cast<unsigned long long>(buffer_->streamId()),
          static_cast<unsigned long long>(size_));
}

namespace
{

struct RegistryEntry
{
    /** Paused at buf's end: growing a trace appends instead of
     *  replaying the prefix. */
    std::unique_ptr<TraceProducer> producer;
    std::shared_ptr<const TraceBuffer> buf;
};

std::mutex registryMutex;
std::map<std::pair<uint64_t, uint64_t>, RegistryEntry> &
registry()
{
    static std::map<std::pair<uint64_t, uint64_t>, RegistryEntry> r;
    return r;
}

} // namespace

std::shared_ptr<const TraceBuffer>
sharedTrace(const WorkloadProfile &profile, uint64_t stream_id,
            uint64_t min_ops)
{
    const uint64_t want = min_ops + kTraceSlackOps;
    const auto key =
        std::make_pair(profileFingerprint(profile), stream_id);

    std::lock_guard<std::mutex> lock(registryMutex);
    RegistryEntry &entry = registry()[key];
    if (entry.buf && entry.buf->size() >= want) {
        Metrics::global().counter("trace_cache.hits").add();
        obs::instant("trace_cache.hit", "trace", [&] {
            return obs::Args()
                .add("workload", profile.name)
                .add("ops", entry.buf->size());
        });
        return entry.buf;
    }
    const char *kind = entry.buf ? "grow" : "miss";
    Metrics::global().counter(entry.buf ? "trace_cache.grows"
                                        : "trace_cache.misses")
        .add();
    obs::instant(entry.buf ? "trace_cache.grow" : "trace_cache.miss",
                 "trace", [&] {
                     return obs::Args()
                         .add("workload", profile.name)
                         .add("want_ops", want);
                 });
    obs::ScopedSpan generate_span("trace.generate", "trace", [&] {
        return obs::Args()
            .add("workload", profile.name)
            .add("kind", kind)
            .add("want_ops", want);
    });

    if (!entry.producer) {
        entry.producer =
            std::make_unique<TraceProducer>(profile, stream_id);
    }
    // Copy-on-grow: readers of the old buffer are never disturbed.
    entry.buf = std::shared_ptr<const TraceBuffer>(new TraceBuffer(
        profile, stream_id, entry.buf.get(), *entry.producer, want));
    return entry.buf;
}

void
clearTraceRegistry()
{
    std::lock_guard<std::mutex> lock(registryMutex);
    registry().clear();
}

} // namespace xps
