/**
 * @file
 * Config-batched evaluation over a shared immutable trace
 * (DESIGN.md §11). A BatchSimulator holds one trace plus its decoded
 * sidecar and evaluates N candidate configurations in one call: every
 * lane is an independent OooCore, and the lanes run one after another
 * between cuts.
 *
 * Three forms of sharing make the batch cheaper than N scalar runs —
 * none of them changes a single simulated bit:
 *
 *   decode    : the per-op meta byte and branch-prediction outcome are
 *               computed once per trace (DecodedTrace) and read by all
 *               lanes.
 *   warmup    : functional cache warmup depends only on the cache
 *               *geometry* (sets / assoc / line), not on latencies or
 *               core parameters, so lanes sharing a geometry adopt one
 *               memoized post-warmup hierarchy instead of re-streaming
 *               the warmup window (MemoryHierarchy::adoptState).
 *   results   : full-fidelity stats are memoized by configFingerprint;
 *               a config the annealer revisits costs a hash lookup.
 *
 * screen() adds successive-halving on top: all lanes advance to a cut
 * point (a fraction of the measurement window), are ranked by partial
 * cycle count — at equal committed instructions fewer cycles is
 * strictly higher IPC — and only the best survive to the next cut.
 * Survivors reach the end of the window having simulated exactly the
 * cycles the scalar path would have, so their stats are bit-identical
 * to simulate(); pruned lanes stop early and are flagged not-full.
 */

#ifndef XPS_SIM_BATCH_HH
#define XPS_SIM_BATCH_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/sim_stats.hh"

namespace xps
{

class TraceBuffer;
class DecodedTrace;

/** Window geometry of a batched run (mirrors SimOptions). */
struct BatchOptions
{
    uint64_t measureInstrs = 100000;
    /** UINT64_MAX means "equal to measureInstrs" (the repo-wide
     *  warmup convention, SimOptions::effectiveWarmup). */
    uint64_t warmupInstrs = UINT64_MAX;

    uint64_t
    effectiveWarmup() const
    {
        return warmupInstrs == UINT64_MAX ? measureInstrs
                                          : warmupInstrs;
    }
};

/** One successive-halving cut: at `fraction` of the measurement
 *  window, keep the `keep` lanes with the fewest cycles. */
struct ScreenCut
{
    double fraction;
    uint32_t keep;
};

/** Result of a screened batch, parallel to the input configs. */
struct ScreenOutcome
{
    /** 1 = full-fidelity stats (bit-identical to simulate());
     *  0 = pruned at a cut, stats are partial (up to the cut). */
    std::vector<uint8_t> full;
    std::vector<SimStats> stats;
};

/** Batched evaluator for one (trace, window) pair. Not thread-safe;
 *  one instance per exploration thread. */
class BatchSimulator
{
  public:
    BatchSimulator(std::shared_ptr<const TraceBuffer> trace,
                   const BatchOptions &opts);
    ~BatchSimulator();

    /**
     * Evaluate every config at full fidelity (no pruning). Duplicate
     * configs within the batch share one lane; configs seen in a
     * previous call are served from the result memo. Stats are
     * bit-identical to simulate() with the same trace and window.
     */
    std::vector<SimStats>
    evaluate(const std::vector<CoreConfig> &configs);

    /**
     * Evaluate with successive-halving cuts. Memo hits and duplicates
     * resolve as in evaluate() (memo hits are full fidelity for free
     * and do not occupy a screening lane). Cuts apply in order of
     * fraction; `keep` bounds the simulated lanes surviving past each
     * cut. An empty cut list degenerates to evaluate().
     */
    ScreenOutcome screen(const std::vector<CoreConfig> &configs,
                         const std::vector<ScreenCut> &cuts);

    /** The screening schedule used by the batched annealer: for
     *  width >= 4, keep width/4 past 1/32 of the window and one past
     *  1/8 (≈1.3 evaluation-equivalents per 8-wide frontier); for
     *  width 2–3 a single 1/8 cut; below that, no cuts. */
    static std::vector<ScreenCut> defaultCuts(uint32_t width);

    /** Cumulative result-memo hits over this instance's lifetime. */
    uint64_t memoHits() const { return memoHits_; }

    const BatchOptions &options() const { return opts_; }

  private:
    using GeometryKey = std::array<uint64_t, 6>;

    ScreenOutcome runBatch(const std::vector<CoreConfig> &configs,
                           const std::vector<ScreenCut> &cuts);

    std::shared_ptr<const TraceBuffer> trace_;
    std::shared_ptr<const DecodedTrace> decoded_;
    BatchOptions opts_;

    /** Full-fidelity stats by configFingerprint (exact arch
     *  identity; the annealer's ±1/menu moves revisit configs). */
    std::unordered_map<uint64_t, SimStats> memo_;
    /** Post-warmup hierarchy by cache geometry (node-stable map:
     *  lanes hold pointers into it while later lanes insert). */
    std::map<GeometryKey, MemoryHierarchy> warmMemo_;
    uint64_t memoHits_ = 0;
};

} // namespace xps

#endif // XPS_SIM_BATCH_HH
