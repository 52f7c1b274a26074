/**
 * @file
 * Simulated-annealing search over the superscalar design space,
 * maximizing IPT, with the paper's rollback rule: whenever the
 * current configuration's IPT drops below half of the incumbent
 * best's, the walk returns to the incumbent (§3).
 *
 * The walk's full state (incumbent, current point, iteration,
 * temperature, RNG words) is exposed as a serializable AnnealerState
 * so long explorations can checkpoint and later resume bit-identically
 * to an uninterrupted run (DESIGN.md §7).
 */

#ifndef XPS_EXPLORE_ANNEALER_HH
#define XPS_EXPLORE_ANNEALER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "explore/search_space.hh"
#include "sim/config.hh"

namespace xps
{

/** Annealing schedule parameters. */
struct AnnealParams
{
    uint64_t iterations = 260;
    /** Initial acceptance temperature, as a fraction of the current
     *  objective (relative scale keeps the schedule workload-
     *  independent). */
    double initialTemp = 0.08;
    double finalTemp = 0.005;
    uint64_t seed = 1;
    /** Rollback threshold of the paper: roll back to the incumbent
     *  when current < threshold * best. */
    double rollbackFraction = 0.5;
    /** Label for trace instants (DESIGN.md §10) — the workload name
     *  when the Explorer drives the walk. Not part of the checkpoint
     *  identity: purely observational. */
    std::string traceLabel;
};

/** Result of one annealing run. */
struct AnnealResult
{
    CoreConfig best;
    double bestScore = 0.0;
    uint64_t evaluations = 0;
    uint64_t accepted = 0;
    /** (iteration, incumbent score) every time the incumbent improves. */
    std::vector<std::pair<uint64_t, double>> improvementTrace;
};

/**
 * The complete walk state after `iteration` completed steps.
 * Restoring it (same space, objective and params) and resuming
 * continues the exact draw-for-draw trajectory of the original run.
 */
struct AnnealerState
{
    uint64_t iteration = 0; ///< completed iterations
    double temp = 0.0;      ///< temperature after `iteration` steps
    CoreConfig current;
    double currentScore = 0.0;
    std::array<uint64_t, 4> rng{}; ///< xoshiro256** words
    AnnealResult result;           ///< incumbent + counters so far
};

/**
 * The annealer. The objective is abstract (the Explorer plugs in
 * cached IPT simulation) so tests can use analytic objectives.
 */
class Annealer
{
  public:
    using Objective = std::function<double(const CoreConfig &)>;
    /** Invoked with a consistent snapshot every `checkpointEvery`
     *  iterations during resume(). */
    using CheckpointHook = std::function<void(const AnnealerState &)>;

    Annealer(const SearchSpace &space, Objective objective,
             AnnealParams params);

    /** Run from a starting configuration (begin + resume). */
    AnnealResult run(const CoreConfig &start) const;

    /** Evaluate `start` and package the iteration-zero state. */
    AnnealerState begin(const CoreConfig &start) const;

    /**
     * Advance `state` to completion. With `checkpointEvery` > 0 the
     * hook fires after every such number of completed iterations (and
     * once more at completion, so the final state is always offered).
     */
    void resume(AnnealerState &state, uint64_t checkpointEvery = 0,
                const CheckpointHook &hook = nullptr) const;

    /** True once `state` has completed the full schedule. */
    bool
    done(const AnnealerState &state) const
    {
        return state.iteration >= params_.iterations;
    }

    const AnnealParams &params() const { return params_; }

  private:
    const SearchSpace &space_;
    Objective objective_;
    AnnealParams params_;
};

} // namespace xps

#endif // XPS_EXPLORE_ANNEALER_HH
