/**
 * @file
 * The synthetic workload generator: turns a WorkloadProfile into an
 * endless, deterministic stream of MicroOps. This stands in for
 * executing a SPEC2000 SimPoint under SimpleScalar (DESIGN.md §2).
 *
 * Structure of the generated stream:
 *  - instruction classes are drawn i.i.d. from the profile mix;
 *  - register dependences are dynamic distances drawn from a geometric
 *    distribution with the profile's mean (dense chains = short
 *    distances = low ILP);
 *  - conditional branches come from a static population of branch
 *    *sites* (biased / loop / pattern / random) selected with a Zipf
 *    law, so a real history-based predictor achieves an accuracy set
 *    by the population mix, not by fiat;
 *  - loads and stores reference three region types: a small hot
 *    (stack-like) region, sequential streams (strides smaller than a
 *    cache line reward large lines), and a Zipf-reused heap whose
 *    footprint is the profile's working set — so cache hit rates
 *    respond to capacity, line size and associativity the way the
 *    benchmark's published behaviour does;
 *  - a configurable fraction of loads depend on the previous load
 *    (pointer chasing), serializing memory latency as in mcf.
 */

#ifndef XPS_WORKLOAD_GENERATOR_HH
#define XPS_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "util/rng.hh"
#include "workload/micro_op.hh"
#include "workload/profile.hh"

namespace xps
{

/** Generator of MicroOps for one workload: the producer behind every
 *  TraceBuffer (trace.hh), which is what the core replays. */
class SyntheticWorkload
{
  public:
    /**
     * @param profile the statistical model to draw from
     * @param stream_id decorrelates multiple instances of the same
     *        profile (e.g. warmup vs measurement runs)
     */
    explicit SyntheticWorkload(const WorkloadProfile &profile,
                               uint64_t stream_id = 0);

    /** Generate and return the next dynamic instruction. The
     *  reference is invalidated by the next call. */
    const MicroOp &next();

    /** Restart the stream from the beginning (same sequence). */
    void reset();

    /** Number of micro-ops generated since construction/reset. */
    uint64_t generated() const { return count_; }

    const WorkloadProfile &profile() const { return profile_; }

  private:
    /** Static conditional-branch site. */
    struct BranchSite
    {
        enum class Kind : uint8_t { Biased, Loop, Pattern, Random };
        Kind kind = Kind::Biased;
        uint64_t pc = 0;
        double takenProb = 0.5; ///< Biased/Random
        uint32_t trip = 1;      ///< Loop: iterations per visit
        uint32_t period = 2;    ///< Pattern: repeat period
        uint32_t takenLen = 1;  ///< Pattern: taken prefix length
        uint32_t counter = 0;   ///< Loop/Pattern state
    };

    void buildSites();
    void resetState();
    bool branchOutcome(BranchSite &site);
    uint64_t memoryAddress(bool is_store);
    uint16_t depDistance();

    WorkloadProfile profile_;
    uint64_t streamId_;
    Rng rng_;
    MicroOp op_;
    uint64_t count_ = 0;

    std::vector<BranchSite> sites_;
    std::vector<uint64_t> streamPtr_;
    uint64_t heapLines_ = 1;
    uint64_t lastHeapLine_ = 0;
    uint64_t lastLoadDist_ = 0; ///< ops since the last load (0 = none)
    double depGeomP_ = 0.25;
};

} // namespace xps

#endif // XPS_WORKLOAD_GENERATOR_HH
