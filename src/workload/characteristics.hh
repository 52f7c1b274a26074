/**
 * @file
 * Microarchitecture-independent workload characterization — the *raw*
 * characteristics the paper argues are an unreliable guide for
 * communal customization (its Figure 1 / §5.3). Measured by streaming
 * the synthetic workload, not read from the profile, so the extractor
 * would work unchanged on a real instruction trace.
 *
 * Axes (paper Figure 1):
 *   A  working-set size        distinct 64B lines touched (log2)
 *   B  branch predictability   accuracy of the reference tournament
 *                              predictor (workload/branch_predictor.hh)
 *   C  dependence density      1 / mean producer distance
 *   D  frequency of loads
 *   E  frequency of cond. branches
 * plus auxiliary axes used by the subsetting baseline.
 */

#ifndef XPS_WORKLOAD_CHARACTERISTICS_HH
#define XPS_WORKLOAD_CHARACTERISTICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/profile.hh"

namespace xps
{

/** Raw (microarchitecture-independent) characteristics. */
struct Characteristics
{
    std::string name;          ///< workload name
    double workingSetLog2 = 0; ///< log2(distinct 64B lines)
    double branchPredictability = 0; ///< reference-predictor accuracy
    double depChainDensity = 0;      ///< 1 / mean producer distance
    double loadFrequency = 0;
    double storeFrequency = 0;
    double condBranchFrequency = 0;
    double spatialLocality = 0; ///< frac of mem refs within 64B of prev
    double mulFrequency = 0;

    /** The five Figure-1 axes, in order A..E. */
    std::vector<double> kiviatAxes() const;
    /** Axis labels matching kiviatAxes(). */
    static std::vector<std::string> kiviatAxisNames();

    /** Full feature vector for the subsetting baseline (8 axes). */
    std::vector<double> featureVector() const;
    static std::vector<std::string> featureNames();
};

/**
 * Measure characteristics by generating `instrs` micro-ops of the
 * profile. Deterministic for fixed arguments.
 */
Characteristics measureCharacteristics(const WorkloadProfile &profile,
                                       uint64_t instrs = 200000);

/** Measure all profiles of a suite. */
std::vector<Characteristics>
measureSuite(const std::vector<WorkloadProfile> &suite,
             uint64_t instrs = 200000);

/**
 * Normalize each axis to 0..scale across a suite (the paper's Kiviat
 * graphs are "normalized to a scale of 0~10").
 * Returns rows in suite order.
 */
std::vector<std::vector<double>>
normalizedKiviat(const std::vector<Characteristics> &suite,
                 double scale = 10.0);

/** Render one benchmark's normalized axes as an ASCII Kiviat
 *  (bar-form) block. */
std::string renderKiviat(const std::string &name,
                         const std::vector<std::string> &axis_names,
                         const std::vector<double> &values,
                         double scale = 10.0);

} // namespace xps

#endif // XPS_WORKLOAD_CHARACTERISTICS_HH
