/**
 * @file
 * Shared immutable traces: the core's only input. A micro-op stream
 * depends only on (profile, streamId, length), and the generator
 * derives it with several RNG draws, a Zipf inversion and a geometric
 * draw per op, while thousands of configuration evaluations per
 * workload replay it. A TraceBuffer materializes the stream once into
 * a flat vector of 24-byte ops, plus one decoded meta byte per op
 * (decodeMicroOp and the branch predictor's outcome) computed in the
 * same pass, and is then shared read-only (via shared_ptr) across
 * every simulation of that workload: annealing iterations, the
 * cross-configuration matrix, daemon what-if queries and the
 * surrogate/subsetting experiments all replay the same buffer from
 * any number of threads concurrently.
 *
 * Sharing rules (DESIGN.md §6):
 *  - a TraceBuffer is immutable after construction; concurrent readers
 *    need no synchronization;
 *  - ownership is shared_ptr<const TraceBuffer>; a run or replay
 *    cursor keeps its buffer alive, so callers may drop their handle
 *    mid-run;
 *  - sharedTrace() is the memoizing registry: one buffer per
 *    (profile fingerprint, streamId), grown monotonically when a
 *    longer run asks for more ops (existing handles stay valid — the
 *    registry swaps in a longer buffer instead of mutating). Each
 *    entry keeps its generator and branch predictor paused at the
 *    buffer's end, so a grown buffer equals a fresh one of its size,
 *    op for op and meta byte for meta byte.
 */

#ifndef XPS_WORKLOAD_TRACE_HH
#define XPS_WORKLOAD_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/micro_op.hh"
#include "workload/profile.hh"

namespace xps
{

/**
 * Extra ops a trace carries beyond the requested measurement+warmup
 * length: the core fetches ahead of commit, so a run consumes up to
 * ROB (<= 1024) + fetch buffer (~140) ops past the commit target.
 */
constexpr uint64_t kTraceSlackOps = 8192;

/** Order-insensitive 64-bit digest of every profile parameter; two
 *  profiles with equal fingerprints generate identical streams. */
uint64_t profileFingerprint(const WorkloadProfile &profile);

/** The generator and branch predictor behind a buffer (trace.cc). */
class TraceProducer;

/** An immutable, pre-generated micro-op stream for one workload. */
class TraceBuffer
{
  public:
    /** Generate `ops` micro-ops of (profile, stream_id) and their meta
     *  bytes eagerly. */
    TraceBuffer(const WorkloadProfile &profile, uint64_t stream_id,
                uint64_t ops);

    const std::vector<MicroOp> &ops() const { return ops_; }
    /** One meta byte per op (micro_op.hh): decodeMicroOp() plus
     *  kMetaMispredict from a BranchPredictor trained on this stream
     *  from position 0. A prediction depends only on the preceding
     *  branch outcomes, so it is what a core would compute live at
     *  fetch, whatever window of the buffer it runs. */
    const std::vector<uint8_t> &meta() const { return meta_; }
    uint64_t size() const { return ops_.size(); }
    const std::string &profileName() const { return profileName_; }
    uint64_t fingerprint() const { return fingerprint_; }
    uint64_t streamId() const { return streamId_; }

    /** Same workload identity and identical op sequence. */
    bool operator==(const TraceBuffer &other) const;
    bool operator!=(const TraceBuffer &other) const
    {
        return !(*this == other);
    }

  private:
    friend std::shared_ptr<const TraceBuffer>
    sharedTrace(const WorkloadProfile &profile, uint64_t stream_id,
                uint64_t min_ops);

    /** The registry's grow path: `prefix` (null for none) continued
     *  to `ops` micro-ops by `producer`, which is paused at its end. */
    TraceBuffer(const WorkloadProfile &profile, uint64_t stream_id,
                const TraceBuffer *prefix, TraceProducer &producer,
                uint64_t ops);

    std::string profileName_;
    uint64_t fingerprint_;
    uint64_t streamId_;
    std::vector<MicroOp> ops_;
    std::vector<uint8_t> meta_;
};

/**
 * Read-only op-by-op replay cursor over a shared TraceBuffer, for the
 * reference core (src/check) and op-level tests; OooCore reads the
 * buffer directly. Running past the end is fatal (size the buffer
 * with kTraceSlackOps — the registry does).
 */
class TraceCursor
{
  public:
    explicit TraceCursor(std::shared_ptr<const TraceBuffer> buffer);

    const MicroOp &
    next()
    {
        if (pos_ >= size_)
            exhausted();
        return data_[pos_++];
    }

    uint64_t generated() const { return pos_; }
    const TraceBuffer &buffer() const { return *buffer_; }

  private:
    [[noreturn]] void exhausted() const;

    std::shared_ptr<const TraceBuffer> buffer_;
    const MicroOp *data_;
    uint64_t size_;
    uint64_t pos_ = 0;
};

/**
 * Memoized per-(profile, streamId) trace registry. Returns a buffer
 * with at least `min_ops` + kTraceSlackOps micro-ops, generating or
 * growing it on first need; subsequent calls share the same buffer.
 * Thread-safe; the returned buffer is safe to read concurrently.
 */
std::shared_ptr<const TraceBuffer>
sharedTrace(const WorkloadProfile &profile, uint64_t stream_id,
            uint64_t min_ops);

/** Drop all memoized traces (tests / memory pressure). Outstanding
 *  shared_ptr handles remain valid. */
void clearTraceRegistry();

} // namespace xps

#endif // XPS_WORKLOAD_TRACE_HH
