/**
 * @file
 * Reproduction budget knobs. The paper ran its exploration for three
 * weeks on a blade; these environment variables let the benches run the
 * same pipeline at laptop scale while keeping every run deterministic.
 * Budget resolves them once per process:
 *
 *   XPS_EVAL_INSTRS      instructions per annealing evaluation
 *   XPS_SA_ITERS         annealing steps per workload
 *   XPS_FINAL_INSTRS     instructions for final cross-config evaluations
 *   XPS_RESULTS_DIR      cache directory for exploration outputs
 *   XPS_THREADS          worker threads for parallel exploration
 *   XPS_CHECKPOINT_EVERY annealing iterations between checkpoint
 *                        writes in the cached experiment pipeline
 *                        (0 disables checkpointing)
 *   XPS_SUPERVISE        1 = run annealing jobs and PerfMatrix rows
 *                        in a supervised process-isolated worker pool
 *                        (util/procpool.hh) instead of raw threads
 *
 * The README's knob table is the one list of every XPS_* variable the
 * library and tools read, with defaults; util_test checks it against
 * the source tree.
 *
 * Malformed numeric values (garbage, overflow, and negatives where a
 * count is expected) warn once and fall back to the documented
 * default — a typo'd knob degrades a run instead of crashing it.
 */

#ifndef XPS_UTIL_ENV_HH
#define XPS_UTIL_ENV_HH

#include <cstdint>
#include <string>

namespace xps
{

/** Read an integer environment variable with a default. Malformed or
 *  overflowing values warn once and yield the default. */
int64_t envInt(const char *name, int64_t def);

/** Read a non-negative integer environment variable with a default.
 *  Malformed, overflowing, or negative values warn once and yield the
 *  default. */
uint64_t envUInt(const char *name, uint64_t def);

/** Read a string environment variable with a default. */
std::string envString(const char *name, const std::string &def);

/**
 * Resolve a worker-thread count. A positive `requested` wins;
 * otherwise XPS_THREADS; otherwise the hardware concurrency; always
 * at least 1. Every parallel entry point (Explorer, PerfMatrix,
 * the bench drivers) routes through this so XPS_THREADS is honored
 * uniformly.
 */
int resolveThreads(int requested = 0);

/** Budget knobs resolved once per process. */
struct Budget
{
    uint64_t evalInstrs;   ///< instructions per annealing evaluation
    uint64_t saIters;      ///< annealing steps per workload
    uint64_t finalInstrs;  ///< instructions per final evaluation
    std::string resultsDir;///< cache directory for exploration outputs
    int threads;           ///< exploration worker threads
    /** Annealing iterations between checkpoint writes in the cached
     *  experiment pipeline (0 = checkpointing off). */
    uint64_t checkpointEvery;
    /** Run exploration and matrix builds on the supervised
     *  process-isolated worker pool (XPS_SUPERVISE). */
    bool supervise;

    /** Resolve from the environment (with defaults from DESIGN.md). */
    static const Budget &get();
};

} // namespace xps

#endif // XPS_UTIL_ENV_HH
