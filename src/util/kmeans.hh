/**
 * @file
 * Generic k-means clustering (Lloyd's algorithm with k-means++-style
 * seeding) over raw point sets. Deterministic for a fixed RNG seed:
 * seeding draws, assignment tie-breaks (lowest cluster index wins)
 * and centroid accumulation order are all fixed, so a given
 * (points, k, seed) triple clusters identically on every platform.
 *
 * Domain-specific embeddings live with their domains: comm/kmeans.hh
 * clusters *configuration* vectors (the Lee & Brooks compromise
 * baseline) through kMeansRepresentatives() below.
 */

#ifndef XPS_UTIL_KMEANS_HH
#define XPS_UTIL_KMEANS_HH

#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace xps
{

/** K-means outcome over a point set. */
struct KMeansResult
{
    std::vector<size_t> assignment; ///< cluster index per point
    std::vector<std::vector<double>> centroids;
    double inertia = 0.0; ///< sum of squared member-centroid distances
};

/**
 * Lloyd's algorithm with k-means++-style seeding. Deterministic for
 * a fixed rng seed.
 */
KMeansResult kMeans(const std::vector<std::vector<double>> &points,
                    size_t k, Rng &rng, int iterations = 64);

/**
 * Cluster `points` into k groups (columns normalized to 0..1 over the
 * set first, so no axis dominates by units) and return, for every
 * point, the index of the *member point* nearest its cluster's
 * centroid — the cluster representative. A point that is itself the
 * representative maps to its own index.
 */
std::vector<size_t> kMeansRepresentatives(
    const std::vector<std::vector<double>> &points, size_t k,
    uint64_t seed);

} // namespace xps

#endif // XPS_UTIL_KMEANS_HH
