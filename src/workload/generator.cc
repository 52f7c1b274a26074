#include "workload/generator.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace xps
{

namespace
{

// Region base addresses; far enough apart that regions never overlap
// for any legal profile.
constexpr uint64_t kHotBase = 0x10000000ULL;
constexpr uint64_t kStreamBase = 0x20000000ULL;
constexpr uint64_t kHeapBase = 0x4000000000ULL;
constexpr uint64_t kBranchPcBase = 0x400000ULL;
/** Gap between stream-region bases (streams never overlap). */
constexpr uint64_t kStreamRegionStride = 64ULL << 20;
/** Cache-line granule used for heap reuse modelling. */
constexpr uint64_t kHeapGranule = 64;
/** Probability a heap access touches the line after the previous
 *  heap line (mild spatial locality of heap data). */
constexpr double kHeapNeighborProb = 0.08;
/** Upper bound on dependence distances (beyond this a producer has
 *  effectively always retired). */
constexpr uint32_t kMaxDepDistance = 256;
static_assert(kMaxDepDistance <= UINT16_MAX,
              "MicroOp::srcDist holds a distance in 16 bits");

} // namespace

SyntheticWorkload::SyntheticWorkload(const WorkloadProfile &profile,
                                     uint64_t stream_id)
    : profile_(profile), streamId_(stream_id),
      rng_(profile.seed ^ (stream_id * 0x9e3779b97f4a7c15ULL))
{
    profile_.validate();
    depGeomP_ = 1.0 / profile_.meanDepDistance;
    heapLines_ = std::max<uint64_t>(1,
        profile_.workingSetBytes / kHeapGranule);
    buildSites();
    resetState();
}

void
SyntheticWorkload::buildSites()
{
    // Site construction uses its own RNG stream so that reset() can
    // re-randomize dynamic draws without changing the static program.
    Rng site_rng(profile_.seed * 0x2545f4914f6cdd1dULL + 0x9e37);
    sites_.resize(profile_.numBranchSites);
    for (uint32_t i = 0; i < profile_.numBranchSites; ++i) {
        BranchSite &site = sites_[i];
        site.pc = kBranchPcBase + 16ULL * i;
        // Kinds are spread across the (Zipf-ranked) site population
        // with a golden-ratio low-discrepancy sequence, so the hot
        // sites carry a representative kind mixture and the measured
        // predictability tracks the profile fractions instead of the
        // luck of which site is hottest.
        const double r = std::fmod(
            (static_cast<double>(i) + 1.0) * 0.618033988749895, 1.0);
        if (r < profile_.fracBiasedSites) {
            site.kind = BranchSite::Kind::Biased;
            // Individual sites scatter around the population bias;
            // half are taken-biased, half not-taken-biased.
            double bias = profile_.biasedTakenProb +
                site_rng.uniform(-0.04, 0.04);
            bias = std::clamp(bias, 0.60, 0.995);
            site.takenProb = site_rng.chance(0.5) ? bias : 1.0 - bias;
        } else if (r < profile_.fracBiasedSites +
                       profile_.fracLoopSites) {
            site.kind = BranchSite::Kind::Loop;
            site.trip = 1 + static_cast<uint32_t>(site_rng.geometric(
                1.0 / std::max(1.0, profile_.meanLoopTrip)));
            site.trip = std::min(site.trip, 4096u);
        } else if (r < profile_.fracBiasedSites +
                       profile_.fracLoopSites +
                       profile_.fracPatternSites) {
            site.kind = BranchSite::Kind::Pattern;
            site.period = static_cast<uint32_t>(site_rng.range(2, 8));
            site.takenLen = static_cast<uint32_t>(
                site_rng.range(1, site.period - 1));
        } else {
            site.kind = BranchSite::Kind::Random;
            site.takenProb = 0.5;
        }
    }
}

void
SyntheticWorkload::resetState()
{
    rng_ = Rng(profile_.seed ^ (streamId_ * 0x9e3779b97f4a7c15ULL));
    count_ = 0;
    lastHeapLine_ = 0;
    lastLoadDist_ = 0;
    for (auto &site : sites_)
        site.counter = 0;
    streamPtr_.assign(profile_.numStreams, 0);
    for (uint32_t i = 0; i < profile_.numStreams; ++i)
        streamPtr_[i] = kStreamBase + i * kStreamRegionStride;
}

void
SyntheticWorkload::reset()
{
    resetState();
}

bool
SyntheticWorkload::branchOutcome(BranchSite &site)
{
    switch (site.kind) {
      case BranchSite::Kind::Biased:
      case BranchSite::Kind::Random:
        return rng_.chance(site.takenProb);
      case BranchSite::Kind::Loop:
        // Back edge: taken trip-1 times, then fall through once.
        if (++site.counter >= site.trip) {
            site.counter = 0;
            return false;
        }
        return true;
      case BranchSite::Kind::Pattern:
        site.counter = (site.counter + 1) % site.period;
        return site.counter < site.takenLen;
    }
    panic("unreachable branch-site kind");
}

uint64_t
SyntheticWorkload::memoryAddress(bool is_store)
{
    const double r = rng_.uniform();
    if (r < profile_.fracHot) {
        // Hot (stack-like) region: tight Zipf reuse of a few KB.
        const uint64_t words = profile_.hotRegionBytes / 8;
        return kHotBase + 8 * rng_.zipf(words, 1.1);
    }
    if (r < profile_.fracHot + profile_.fracStream) {
        // Sequential stream: strides smaller than a line make large
        // lines pay off, as in the compression benchmarks.
        const uint32_t s = static_cast<uint32_t>(
            rng_.below(profile_.numStreams));
        uint64_t addr = streamPtr_[s];
        streamPtr_[s] += profile_.streamStrideBytes;
        const uint64_t window_base = kStreamBase + s * kStreamRegionStride;
        if (streamPtr_[s] >= window_base + profile_.streamWindowBytes)
            streamPtr_[s] = window_base;
        return addr;
    }
    // Heap: Zipf line reuse over the working set, scattered so that
    // rank adjacency does not fake spatial locality, plus a mild
    // next-line component.
    uint64_t line;
    if (rng_.chance(kHeapNeighborProb)) {
        line = (lastHeapLine_ + 1) % heapLines_;
    } else {
        const uint64_t rank = rng_.zipf(heapLines_, profile_.heapZipfS);
        // Multiplicative scatter keeps hot lines spread across sets.
        line = (rank * 0x9e3779b97f4a7c15ULL) % heapLines_;
    }
    lastHeapLine_ = line;
    const uint64_t offset = 8 * rng_.below(kHeapGranule / 8);
    (void)is_store;
    return kHeapBase + line * kHeapGranule + offset;
}

uint16_t
SyntheticWorkload::depDistance()
{
    uint64_t d = 1 + rng_.geometric(depGeomP_);
    return static_cast<uint16_t>(std::min<uint64_t>(d, kMaxDepDistance));
}

const MicroOp &
SyntheticWorkload::next()
{
    op_ = MicroOp{};
    const double r = rng_.uniform();
    const WorkloadProfile &p = profile_;

    double acc = p.fracLoad;
    if (r < acc) {
        op_.cls = OpClass::Load;
    } else if (r < (acc += p.fracStore)) {
        op_.cls = OpClass::Store;
    } else if (r < (acc += p.fracCondBranch)) {
        op_.cls = OpClass::CondBranch;
    } else if (r < (acc += p.fracJump)) {
        op_.cls = OpClass::Jump;
    } else if (r < (acc += p.fracMul)) {
        op_.cls = OpClass::IntMul;
    } else {
        op_.cls = OpClass::IntAlu;
    }

    switch (op_.cls) {
      case OpClass::Load:
        op_.addr = memoryAddress(false);
        op_.numSrcs = 1;
        if (lastLoadDist_ > 0 && lastLoadDist_ <= kMaxDepDistance &&
            rng_.chance(p.loadChaseProb)) {
            // Pointer chase: address depends on the previous load.
            op_.srcDist[0] = static_cast<uint16_t>(lastLoadDist_);
        } else {
            op_.srcDist[0] = depDistance();
        }
        break;
      case OpClass::Store:
        // Data + address operands.
        op_.numSrcs = 2;
        op_.srcDist[0] = depDistance();
        op_.srcDist[1] = depDistance();
        op_.addr = memoryAddress(true);
        break;
      case OpClass::CondBranch: {
        const uint64_t idx = rng_.zipf(sites_.size(), p.siteZipfS);
        BranchSite &site = sites_[idx];
        op_.pc = site.pc;
        op_.taken = branchOutcome(site);
        op_.numSrcs = 1;
        op_.srcDist[0] = depDistance();
        break;
      }
      case OpClass::Jump:
        op_.pc = kBranchPcBase + 16ULL *
            (sites_.size() + rng_.below(64));
        op_.taken = true;
        op_.numSrcs = 0;
        break;
      case OpClass::IntMul:
      case OpClass::IntAlu:
        op_.numSrcs = rng_.chance(p.fracTwoSrc) ? 2 : 1;
        op_.srcDist[0] = depDistance();
        if (op_.numSrcs == 2)
            op_.srcDist[1] = depDistance();
        break;
    }

    // Track the distance to the most recent load for pointer chasing.
    if (op_.cls == OpClass::Load)
        lastLoadDist_ = 1;
    else if (lastLoadDist_ > 0)
        ++lastLoadDist_;

    ++count_;
    return op_;
}

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu: return "alu";
      case OpClass::IntMul: return "mul";
      case OpClass::Load: return "load";
      case OpClass::Store: return "store";
      case OpClass::CondBranch: return "branch";
      case OpClass::Jump: return "jump";
    }
    return "?";
}

} // namespace xps
