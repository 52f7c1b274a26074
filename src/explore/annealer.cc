#include "explore/annealer.hh"

#include <cmath>
#include <cstdlib>

#include "obs/tracer.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/shutdown.hh"

namespace xps
{

namespace
{

/**
 * Honor a pending SIGINT/SIGTERM at a checkpoint boundary: the hook
 * has just persisted the state atomically, so this is the one spot
 * where stopping loses no work. std::exit (not _exit) so the at-exit
 * trace-shard merge and metrics dump still run; the distinct exit
 * code lets drivers tell a graceful stop from a crash.
 */
void
exitIfStopRequested(const char *label, uint64_t iter)
{
    if (!stopRequested())
        return;
    inform("anneal[%s]: stop requested; exiting at iteration %llu "
           "with a durable checkpoint", label,
           static_cast<unsigned long long>(iter));
    std::exit(kGracefulExitCode);
}

} // namespace

Annealer::Annealer(const SearchSpace &space, Objective objective,
                   AnnealParams params)
    : space_(space), objective_(std::move(objective)),
      params_(params)
{
    if (params_.iterations == 0)
        fatal("Annealer: zero iterations");
    if (params_.initialTemp <= 0.0 ||
        params_.finalTemp <= 0.0 ||
        params_.finalTemp > params_.initialTemp) {
        fatal("Annealer: bad temperature schedule");
    }
}

AnnealerState
Annealer::begin(const CoreConfig &start) const
{
    AnnealerState state;
    state.iteration = 0;
    state.temp = params_.initialTemp;
    state.rng = Rng(params_.seed).state();
    state.current = start;
    state.currentScore = objective_(start);
    state.result.best = start;
    state.result.bestScore = state.currentScore;
    state.result.evaluations = 1;
    state.result.improvementTrace.emplace_back(0, state.currentScore);
    return state;
}

void
Annealer::resume(AnnealerState &state, uint64_t checkpointEvery,
                 const CheckpointHook &hook) const
{
    if (state.iteration > params_.iterations)
        fatal("Annealer::resume: state is past the schedule "
              "(%llu > %llu iterations)",
              static_cast<unsigned long long>(state.iteration),
              static_cast<unsigned long long>(params_.iterations));

    Metrics &metrics = Metrics::global();
    Counter &ctr_accepts = metrics.counter("anneal.accepts");
    Counter &ctr_rejects = metrics.counter("anneal.rejects");
    Counter &ctr_rollbacks = metrics.counter("anneal.rollbacks");
    Counter &ctr_evals = metrics.counter("anneal.evaluations");

    // Observability: the always-on anneal.step histogram, and trace
    // instants that cost one predicted branch per step when tracing
    // is off. Handles are hoisted out of the loop; the per-step
    // instants carry the workload label so xps-report can reconstruct
    // per-workload convergence.
    const char *label =
        params_.traceLabel.empty() ? "anneal" : params_.traceLabel.c_str();
    Histogram &step_histogram = metrics.histogram("anneal.step");
    obs::ScopedSpan resume_span("anneal.resume", "anneal", [&] {
        return obs::Args()
            .add("workload", label)
            .add("from", state.iteration)
            .add("to", params_.iterations);
    });

    Rng rng(0);
    rng.setState(state.rng);
    CoreConfig current = state.current;
    double cur_score = state.currentScore;
    AnnealResult &result = state.result;

    const double cooling =
        std::pow(params_.finalTemp / params_.initialTemp,
                 1.0 / static_cast<double>(params_.iterations));
    double temp = state.temp;

    auto sync = [&](uint64_t iter) {
        state.iteration = iter;
        state.temp = temp;
        state.rng = rng.state();
        state.current = current;
        state.currentScore = cur_score;
    };

    // Metropolis acceptance + incumbent tracking + the paper's
    // rollback rule for one scored candidate.
    auto metropolis = [&](uint64_t iter, const CoreConfig &cand,
                          double cand_score) {
        ++result.evaluations;
        ctr_evals.add();

        // Metropolis acceptance on the relative change.
        const double rel = cur_score > 0.0 ?
            (cand_score - cur_score) / cur_score : 1.0;
        const bool accept =
            rel >= 0.0 || rng.uniform() < std::exp(rel / temp);
        if (accept) {
            current = cand;
            cur_score = cand_score;
            ++result.accepted;
            ctr_accepts.add();
            obs::instant("anneal.accept", "anneal", [&] {
                return obs::Args()
                    .add("workload", label)
                    .add("step", iter)
                    .add("temp", temp)
                    .add("obj", cand_score);
            });
        } else {
            ctr_rejects.add();
            obs::instant("anneal.reject", "anneal", [&] {
                return obs::Args()
                    .add("workload", label)
                    .add("step", iter)
                    .add("temp", temp)
                    .add("obj", cand_score);
            });
        }

        if (cur_score > result.bestScore) {
            result.best = current;
            result.bestScore = cur_score;
            result.improvementTrace.emplace_back(iter, cur_score);
            obs::instant("anneal.improve", "anneal", [&] {
                return obs::Args()
                    .add("workload", label)
                    .add("step", iter)
                    .add("temp", temp)
                    .add("obj", result.bestScore);
            });
        }

        // The paper's rollback rule: a walk that has fallen below
        // half the incumbent is abandoned.
        if (cur_score <
            params_.rollbackFraction * result.bestScore) {
            current = result.best;
            cur_score = result.bestScore;
            ctr_rollbacks.add();
            obs::instant("anneal.rollback", "anneal", [&] {
                return obs::Args()
                    .add("workload", label)
                    .add("step", iter)
                    .add("temp", temp)
                    .add("obj", cur_score);
            });
        }
    };

    for (uint64_t iter = state.iteration + 1;
         iter <= params_.iterations; ++iter) {
        temp *= cooling;
        const uint64_t step_begin = obs::detail::nowNs();

        CoreConfig cand;
        bool have = false;
        for (int attempt = 0; attempt < 16 && !have; ++attempt)
            have = space_.neighbor(current, rng, cand);
        if (have)
            metropolis(iter, cand, objective_(cand));
        // else: stuck corner; cool and retry next iteration
        step_histogram.record(obs::detail::nowNs() - step_begin);

        if (checkpointEvery > 0 && hook &&
            (iter % checkpointEvery == 0 ||
             iter == params_.iterations)) {
            sync(iter);
            hook(state);
            exitIfStopRequested(label, iter);
        }
    }
    sync(params_.iterations);
}

AnnealResult
Annealer::run(const CoreConfig &start) const
{
    AnnealerState state = begin(start);
    resume(state);
    return std::move(state.result);
}

} // namespace xps
