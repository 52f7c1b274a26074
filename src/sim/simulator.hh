/**
 * @file
 * One-call simulation facade: profile + configuration -> SimStats.
 * This is the evaluation primitive that the annealer, the
 * cross-configuration matrix and the examples all share.
 */

#ifndef XPS_SIM_SIMULATOR_HH
#define XPS_SIM_SIMULATOR_HH

#include <cstdint>

#include "sim/config.hh"
#include "sim/sim_stats.hh"
#include "workload/profile.hh"

namespace xps
{

class InvariantChecker;

/** Options for one simulation run. */
struct SimOptions
{
    /** Committed instructions in the measurement window. */
    uint64_t measureInstrs = 100000;
    /** Functional-warmup instructions (caches/predictor train with
     *  no timing; cheap). Default: same as the measurement window. */
    uint64_t warmupInstrs = UINT64_MAX; ///< UINT64_MAX = measure
    /** Decorrelates the workload stream across runs. */
    uint64_t streamId = 0;

    /**
     * Structural invariant checking (src/check, DESIGN.md §8).
     * `checker` attaches a caller-owned accumulating checker (the
     * differential fuzzer inspects it after the run). When it is
     * null, `check = true` — or XPS_CHECK=1 in the environment —
     * makes simulate() run under an internal fail-fast checker that
     * panics on the first violation. Default: no checking, and the
     * core pays only a null-pointer test per hook site.
     */
    InvariantChecker *checker = nullptr;
    bool check = false;

    uint64_t
    effectiveWarmup() const
    {
        return warmupInstrs == UINT64_MAX ? measureInstrs
                                          : warmupInstrs;
    }

    /** Micro-ops a trace must hold for this run (excluding the
     *  in-flight slack the registry adds on top). */
    uint64_t
    traceOps() const
    {
        return measureInstrs + effectiveWarmup();
    }
};

/**
 * Simulate `profile` on `config` by replaying the registry's trace,
 * sharedTrace(profile, opts.streamId, opts.traceOps()), on one
 * OooCore: the buffer is generated once per process and shared by
 * every run of the workload. Deterministic for fixed arguments. The
 * configuration is validated against the default technology's timing
 * model (fatal if any unit does not fit its stage budget).
 */
SimStats simulate(const WorkloadProfile &profile,
                  const CoreConfig &config,
                  const SimOptions &opts = SimOptions{});

} // namespace xps

#endif // XPS_SIM_SIMULATOR_HH
