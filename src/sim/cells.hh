/**
 * @file
 * The process-wide cell memo (DESIGN.md §6): the SimStats of one
 * (workload, configuration, run window) cell, simulated once per
 * process and then read back. The explorer's adoption between rounds,
 * its final pass and PerfMatrix::build all read their cells through
 * it, so a cell the final pass just validated costs the matrix a
 * lookup, and identical customized configurations are simulated once.
 *
 * Prefetch in parallel, decide serially: a caller whose decision loop
 * must stay serial (adoption, the final pass) first hands the cells
 * that loop will read to prefetchCells(), which fills the memo on a
 * thread pool, and then runs the loop unchanged over simulateCell().
 * simulate() is deterministic, so the memo changes which thread does
 * the work and when, never a result.
 */

#ifndef XPS_SIM_CELLS_HH
#define XPS_SIM_CELLS_HH

#include <vector>

#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/profile.hh"

namespace xps
{

/**
 * simulate(profile, config, opts) through the memo. The key is
 * (profileFingerprint, configFingerprint, measureInstrs,
 * effectiveWarmup(), streamId), which also selects the registry
 * trace simulate() replays. A hit must also match the
 * workload name and sameArch(), so a fingerprint collision is
 * simulated rather than answered from the wrong cell. Concurrent
 * requests for one cell simulate it once. Runs with a checker,
 * `check` or XPS_CHECK bypass the memo. Counts `cells.hits` and
 * `cells.misses`.
 */
SimStats simulateCell(const WorkloadProfile &profile,
                      const CoreConfig &config, const SimOptions &opts);

/** One cell to prefetch. */
struct Cell
{
    WorkloadProfile profile;
    CoreConfig config;
    SimOptions opts;
};

/**
 * Fill the memo with every cell of `cells` it does not hold yet, on a
 * pool of resolveThreads(threads) threads; returns when all are in.
 * Must not overlap a fork(): a child would inherit cells in flight.
 */
void prefetchCells(const std::vector<Cell> &cells, int threads);

/** Forget every cell (tests that compare a run against a golden
 *  computed earlier in the same process). */
void clearCells();

} // namespace xps

#endif // XPS_SIM_CELLS_HH
