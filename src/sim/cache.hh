/**
 * @file
 * Set-associative data caches with true-LRU replacement and a
 * two-level hierarchy facade that returns load latencies in cycles.
 * Geometry (sets / associativity / line size) and pipelined access
 * latency come from the CoreConfig; the timing legality of that
 * geometry is enforced by CoreConfig::validate, not here.
 */

#ifndef XPS_SIM_CACHE_HH
#define XPS_SIM_CACHE_HH

#include <cstdint>
#include <vector>

namespace xps
{

/** One set-associative cache level (tags only; data is not stored). */
class Cache
{
  public:
    /**
     * @param sets number of sets (power of two)
     * @param assoc ways per set
     * @param line_bytes line size (power of two)
     */
    Cache(uint64_t sets, uint32_t assoc, uint32_t line_bytes);

    /** Look up an address; on hit, update LRU. @return hit? */
    bool access(uint64_t addr);

    /** Install the line containing addr (LRU victim eviction). */
    void fill(uint64_t addr);

    /** Invalidate everything (between warmup-less runs). */
    void reset();

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    double
    missRate() const
    {
        const uint64_t total = hits_ + misses_;
        return total == 0 ? 0.0 :
            static_cast<double>(misses_) / static_cast<double>(total);
    }

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lru = 0; ///< last-use stamp
        bool valid = false;
    };

    uint64_t setIndex(uint64_t line_addr) const
    {
        return line_addr & (sets_ - 1);
    }

    uint64_t sets_;
    uint32_t assoc_;
    uint32_t lineShift_;
    std::vector<Way> ways_; ///< sets_ x assoc_, row-major
    uint64_t stamp_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/**
 * L1D + L2 + memory. Loads probe L1 then L2 then memory; misses fill
 * all levels (inclusive) and pay a line-transfer cost proportional to
 * the line size (32B/cycle from L2, 16B/cycle from memory), so large
 * lines only pay off for spatially local reference streams. Stores
 * are write-allocate and modelled for their fill effects only
 * (latency is hidden by the store buffer).
 */
class MemoryHierarchy
{
  public:
    MemoryHierarchy(uint64_t l1_sets, uint32_t l1_assoc,
                    uint32_t l1_line, int l1_cycles,
                    uint64_t l2_sets, uint32_t l2_assoc,
                    uint32_t l2_line, int l2_cycles, int mem_cycles);

    /** Service level of a load. */
    enum class Level { L1, L2, Memory };

    /** Latency in cycles for a load to the given address.
     *  @param level_out if non-null, receives the servicing level. */
    int loadLatency(uint64_t addr, Level *level_out = nullptr);

    /** Install effects of a committed store. */
    void storeTouch(uint64_t addr);

    void reset();

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    uint64_t memAccesses() const { return memAccesses_; }

    /** Worst-case load latency (a full miss), for event-horizon
     *  sizing in the core's wakeup wheel. */
    int
    maxLoadLatency() const
    {
        return l1Cycles_ + l2Cycles_ + memCycles_ + l1FillCycles_ +
               l2FillCycles_;
    }

  private:
    Cache l1_;
    Cache l2_;
    int l1Cycles_;
    int l2Cycles_;
    int memCycles_;
    int l1FillCycles_; ///< line transfer from L2 on an L1 miss
    int l2FillCycles_; ///< line transfer from memory on an L2 miss
    uint64_t memAccesses_ = 0;
};

} // namespace xps

#endif // XPS_SIM_CACHE_HH
