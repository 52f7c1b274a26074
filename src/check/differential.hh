/**
 * @file
 * Differential comparator and fuzz driver (DESIGN.md §8): run one
 * PropCase through OooCore (under an accumulating InvariantChecker)
 * and through the in-order ReferenceCore oracle on the same trace
 * buffer, then require
 *
 *   - zero structural invariant violations,
 *   - exactly matching instruction / load / store / branch /
 *     mispredict counts (the committed window is the same trace
 *     window, so any drift is a bookkeeping bug), and
 *   - IPC domination: ooo.cycles <= ref.cycles (the oracle is fully
 *     serialized, so a correct out-of-order core can never be slower).
 *
 * fuzzDifferential() drives this over a seeded stream of random
 * cases; every failure is shrunk to a minimal reproduction and
 * serialized into the replayable corpus under tests/prop_corpus/.
 */

#ifndef XPS_CHECK_DIFFERENTIAL_HH
#define XPS_CHECK_DIFFERENTIAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/propgen.hh"
#include "check/reference_core.hh"
#include "sim/sim_stats.hh"

namespace xps
{

/** Outcome of one differential comparison. */
struct DiffResult
{
    bool passed = false;
    /** Human-readable description of every failed check; empty when
     *  the case passed. */
    std::string failure;
    SimStats ooo;
    RefStats ref;
    std::vector<std::string> invariantViolations;
};

/** Run one case through core + checker + oracle and compare. */
DiffResult runDifferentialCase(const PropCase &c);

/** Outcome of one fuzzing campaign. */
struct FuzzReport
{
    uint64_t iterations = 0;
    uint64_t failures = 0;
    /** Shrunk minimal reproduction of the first failure. */
    PropCase firstFailure;
    std::string firstFailureMessage;
    /** Corpus files written (one per failure, when corpus_dir set). */
    std::vector<std::string> corpusFiles;
};

/**
 * Generate and check `iters` random cases from `seed`. Each failing
 * case is shrunk to a minimal reproduction; when `corpus_dir` is
 * non-empty the shrunk case is serialized there as a replayable
 * `.case` file. Stops early after a handful of failures (shrinking
 * is the expensive part; one campaign does not need dozens of
 * duplicates of the same bug).
 */
FuzzReport fuzzDifferential(uint64_t iters, uint64_t seed,
                            const std::string &corpus_dir = "");

/** Parse every `*.case` file under `dir` (sorted by name; empty when
 *  the directory does not exist). */
std::vector<PropCase> loadCorpus(const std::string &dir);

} // namespace xps

#endif // XPS_CHECK_DIFFERENTIAL_HH
