/**
 * @file
 * Checkpoint serialization for the exploration pipeline (DESIGN.md
 * §7). Two kinds of files live under $XPS_RESULTS_DIR/checkpoints/:
 *
 *  - per-workload files (<workload>.ckpt): the annealing walk of the
 *    current round — full AnnealerState (incumbent, current point,
 *    iteration, temperature, RNG words), the workload's evaluation
 *    memo and counters. Rewritten atomically every
 *    XPS_CHECKPOINT_EVERY iterations.
 *  - one suite file (suite.ckpt): the round-barrier state — every
 *    workload's post-adoption configuration, score, memo and
 *    counters, plus final-phase progress. Written atomically at each
 *    barrier, so a crash never mixes pre- and post-adoption state.
 *
 * All floating-point values are serialized as C99 hex-floats, so a
 * resumed run continues bit-identically to an uninterrupted one. An
 * identity manifest (budget knobs, seeds, profile fingerprints,
 * search bounds) is embedded in every file; a checkpoint whose
 * manifest does not match the present run is ignored and exploration
 * restarts from scratch — stale state is never silently reused.
 * Parsing is tolerant: truncated or corrupted files yield false, not
 * a crash.
 */

#ifndef XPS_EXPLORE_CHECKPOINT_HH
#define XPS_EXPLORE_CHECKPOINT_HH

#include <string>
#include <vector>

#include "explore/annealer.hh"
#include "util/csv.hh"

namespace xps
{

/** Bit-exact double -> C99 hex-float (round-trips via parseHexDouble). */
std::string formatHexDouble(double value);

/** Parse a hex-float; false on malformed input. */
bool parseHexDouble(const std::string &text, double &out);

/** Mid-round annealing state of one workload. */
struct WorkloadCheckpoint
{
    int round = 0;      ///< round this walk belongs to
    AnnealerState anneal;
    uint64_t evals = 0;     ///< simulator evaluations so far
    uint64_t adoptions = 0; ///< foreign configurations adopted so far
    /** Evaluation memo: archKey -> IPT. */
    std::vector<std::pair<std::string, double>> memo;
};

/** One workload's slice of the suite barrier state. */
struct SuiteWorkloadState
{
    CoreConfig current;
    double currentIpt = 0.0;
    uint64_t evals = 0;
    uint64_t adoptions = 0;
    std::vector<std::pair<std::string, double>> memo;
};

/** The round-barrier state of the whole suite. */
struct SuiteCheckpoint
{
    enum class Phase
    {
        Anneal,      ///< annealing round `round` (workload files refine)
        FinalScored, ///< all rounds done; finalIpt computed
        FinalAdopt,  ///< gross adoption: workloads [0, adoptIndex) done
    };

    int round = 0;
    Phase phase = Phase::Anneal;
    uint64_t adoptIndex = 0;
    std::vector<double> finalIpt; ///< valid in FinalScored/FinalAdopt
    std::vector<SuiteWorkloadState> workloads;
};

/** Serialize to the textual checkpoint format with the identity
 *  manifest embedded. */
std::string serializeWorkloadCheckpoint(const WorkloadCheckpoint &ckpt,
                                        const CsvManifest &identity);
std::string serializeSuiteCheckpoint(const SuiteCheckpoint &ckpt,
                                     const CsvManifest &identity);

/**
 * Parse a checkpoint file's content. Returns false — never crashes —
 * when the content is truncated, corrupted, or carries a manifest
 * different from `identity` (stale checkpoint from another budget).
 */
bool parseWorkloadCheckpoint(const std::string &content,
                             const CsvManifest &identity,
                             WorkloadCheckpoint &out);
bool parseSuiteCheckpoint(const std::string &content,
                          const CsvManifest &identity,
                          SuiteCheckpoint &out);

} // namespace xps

#endif // XPS_EXPLORE_CHECKPOINT_HH
