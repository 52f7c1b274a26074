/**
 * @file
 * Umbrella header for the xp-scalar library: include this to get the
 * whole public API. Finer-grained headers are available per module
 * (workload/, sim/, timing/, explore/, comm/).
 *
 * The library reproduces "Configurational Workload Characterization"
 * (Najaf-abadi & Rotenberg, ISPASS 2008); see DESIGN.md for the
 * system inventory and EXPERIMENTS.md for the paper-vs-measured
 * record.
 *
 * API tour:
 *  - xps::WorkloadProfile / xps::spec2000int(): statistical workload
 *    models (the SPEC2000int substitution) and their registry.
 *  - xps::SyntheticWorkload: deterministic micro-op stream generator,
 *    and xps::sharedTrace() / xps::TraceBuffer: its stream built once
 *    per process as a compact op trace, the simulator's only input.
 *  - xps::measureCharacteristics(): microarchitecture-independent
 *    (raw) characterization — the paper's Figure-1 axes.
 *  - xps::CoreConfig: one superscalar configuration (Tables 3/4).
 *  - xps::UnitTiming / xps::CactiLite: the access-time model and the
 *    pipeline-fitting rule that couples units through the clock.
 *  - xps::simulate(): cycle-level out-of-order timing simulation of
 *    a workload's trace;
 *    xps::simulateCell(): the same through the process-wide cell
 *    memo.
 *  - xps::Explorer / xps::Annealer / xps::SearchSpace: the
 *    simulated-annealing design-space exploration (xp-scalar proper);
 *    its output is the *configurational characterization*.
 *  - xps::PerfMatrix, xps::evaluateCombination, xps::bestCombination,
 *    xps::greedySurrogates: the communal-customization analyses of
 *    the paper's §5.
 *  - xps::Dendrogram / xps::kMeansCompromise: the raw-similarity
 *    subsetting and configuration-clustering baselines.
 */

#ifndef XPS_XPSCALAR_HH
#define XPS_XPSCALAR_HH

#include "comm/combination.hh"
#include "comm/experiments.hh"
#include "comm/kmeans.hh"
#include "comm/merit.hh"
#include "comm/perf_matrix.hh"
#include "comm/subsetting.hh"
#include "comm/surrogate.hh"
#include "explore/annealer.hh"
#include "explore/explorer.hh"
#include "explore/search_space.hh"
#include "sim/area_power.hh"
#include "sim/cache.hh"
#include "sim/cells.hh"
#include "sim/config.hh"
#include "sim/ooo_core.hh"
#include "sim/sim_stats.hh"
#include "sim/simulator.hh"
#include "timing/cacti_lite.hh"
#include "timing/fitting.hh"
#include "timing/technology.hh"
#include "timing/unit_timing.hh"
#include "util/csv.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats_util.hh"
#include "util/table.hh"
#include "workload/branch_predictor.hh"
#include "workload/characteristics.hh"
#include "workload/generator.hh"
#include "workload/micro_op.hh"
#include "workload/profile.hh"
#include "workload/trace.hh"

#endif // XPS_XPSCALAR_HH
