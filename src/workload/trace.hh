/**
 * @file
 * Shared immutable trace cache. A micro-op stream depends only on
 * (profile, streamId, length), yet the streaming generator re-derives
 * it — several RNG draws, a Zipf inversion and a geometric draw per
 * op — for every one of the thousands of configuration evaluations the
 * annealer performs per workload. A TraceBuffer materializes the
 * stream once into a flat, cache-friendly vector that is then shared
 * read-only (via shared_ptr) across every simulation of that workload:
 * annealing iterations, the cross-configuration matrix, and the
 * surrogate/subsetting experiments all replay the same buffer from
 * any number of threads concurrently.
 *
 * Sharing rules (DESIGN.md §6):
 *  - a TraceBuffer is immutable after construction; concurrent readers
 *    need no synchronization;
 *  - ownership is shared_ptr<const TraceBuffer>; a replay cursor keeps
 *    its buffer alive, so callers may drop their handle mid-run;
 *  - sharedTrace() is the memoizing registry: one buffer per
 *    (profile fingerprint, streamId), grown monotonically when a
 *    longer run asks for more ops (existing handles stay valid — the
 *    registry swaps in a longer buffer instead of mutating);
 *  - replay is bit-identical to streaming generation: the buffer is
 *    filled by the same SyntheticWorkload the fallback path would run.
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

/** An immutable, pre-generated micro-op stream for one workload. */
class TraceBuffer
{
  public:
    /** Generate `ops` micro-ops of (profile, stream_id) eagerly. */
    TraceBuffer(const WorkloadProfile &profile, uint64_t stream_id,
                uint64_t ops);

    /** Wrap an already-generated stream (the registry's grow path).
     *  `ops` must be the profile's stream from position 0. */
    TraceBuffer(const WorkloadProfile &profile, uint64_t stream_id,
                std::vector<MicroOp> ops);

    const std::vector<MicroOp> &ops() const { return ops_; }
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
    std::string profileName_;
    uint64_t fingerprint_;
    uint64_t streamId_;
    std::vector<MicroOp> ops_;
};

/**
 * Read-only replay cursor over a shared TraceBuffer. next() matches
 * SyntheticWorkload::next() so the core can consume either; running
 * past the end is fatal (size the buffer with kTraceSlackOps — the
 * registry does).
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
    /** Shared handle to the underlying buffer (keepalive for the
     *  decoded replay path). */
    std::shared_ptr<const TraceBuffer> share() const { return buffer_; }

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

/**
 * Per-op decoded metadata sidecar for a TraceBuffer: one meta byte per
 * micro-op (see decodeMicroOp), including the *precomputed branch
 * prediction outcome*. The tournament predictor's state is a pure
 * function of the branch-op subsequence from position 0 — independent
 * of core configuration and of where the warmup/measure split falls —
 * so every prediction the core would make during replay can be made
 * once per trace and shared read-only by every configuration
 * evaluation. Immutable after
 * construction; concurrent readers need no synchronization.
 */
class DecodedTrace
{
  public:
    explicit DecodedTrace(const TraceBuffer &buffer);

    const uint8_t *meta() const { return meta_.data(); }
    uint64_t size() const { return meta_.size(); }

  private:
    std::vector<uint8_t> meta_;
};

/**
 * Memoized decode of a shared trace buffer: one DecodedTrace per live
 * TraceBuffer, built on first need. Thread-safe; the result is safe to
 * read concurrently and keeps itself valid independently of the
 * registry (callers hold shared_ptr).
 */
std::shared_ptr<const DecodedTrace>
decodedTrace(const std::shared_ptr<const TraceBuffer> &buffer);

} // namespace xps

#endif // XPS_WORKLOAD_TRACE_HH
