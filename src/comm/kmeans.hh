/**
 * @file
 * K-means clustering of *configuration vectors* — the Lee & Brooks
 * style baseline the paper discusses (§2.2): cluster the customized
 * architectures themselves and give each benchmark the architecture
 * closest to its cluster centroid. The paper notes this approach's
 * outcome "is highly dependent on how the different architectural
 * parameters are normalized and weighed"; configFeatureVector()
 * documents one reasonable normalization (log-scaled capacities,
 * linear depths/widths), and the ablation bench exercises it.
 *
 * The generic clustering machinery (kMeans, kMeansRepresentatives)
 * lives in util/kmeans.hh.
 */

#ifndef XPS_COMM_KMEANS_HH
#define XPS_COMM_KMEANS_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "util/kmeans.hh"
#include "util/rng.hh"

namespace xps
{

/**
 * Embed a configuration for clustering: log2 of capacities and sizes
 * (clock, width, ROB, IQ, LSQ, depths, L1/L2 geometry), column-
 * normalized by the caller across the set being clustered.
 */
std::vector<double> configFeatureVector(const CoreConfig &cfg);

/**
 * Cluster customized configurations into k groups and return, for
 * each point, the index of the *member configuration* nearest its
 * cluster centroid (the compromise architecture of Lee & Brooks).
 */
std::vector<size_t> kMeansCompromise(
    const std::vector<CoreConfig> &configs, size_t k, uint64_t seed);

} // namespace xps

#endif // XPS_COMM_KMEANS_HH
