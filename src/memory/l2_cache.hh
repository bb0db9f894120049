/**
 * @file
 * Unified L2 cache: 2 MB, 8-way, 25-cycle access, with a 160-cycle main
 * memory behind it (Table 1). The L2 is co-located with cluster 0; the
 * caller adds network hops for requests originating elsewhere.
 */

#ifndef CLUSTERSIM_MEMORY_L2_CACHE_HH
#define CLUSTERSIM_MEMORY_L2_CACHE_HH

#include "common/resource.hh"
#include "common/stats.hh"
#include "memory/cache_bank.hh"

namespace clustersim {

/** L2 configuration. */
struct L2Params {
    std::size_t sizeBytes = 2 * 1024 * 1024;
    int ways = 8;
    int lineBytes = 64;
    Cycle accessLatency = 25;
    Cycle memoryLatency = 160;
};

/** Unified second-level cache plus main memory. */
class L2Cache
{
  public:
    explicit L2Cache(const L2Params &params = {});

    /**
     * Access the L2 (pipelined, one request per cycle).
     * @param addr  Byte address.
     * @param write True for writebacks from L1.
     * @param when  Cycle the request reaches the L2.
     * @return Cycle the data is available at the L2.
     */
    Cycle access(Addr addr, bool write, Cycle when);

    std::uint64_t accesses() const { return array_.accesses(); }
    std::uint64_t misses() const { return array_.misses(); }
    double missRate() const { return array_.missRate(); }
    void resetStats() { array_.resetStats(); }

    const L2Params &params() const { return params_; }

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        array_.fields(v);
        port_.fields(v);
    }

  private:
    L2Params params_; // simlint-ignore(F001): identity, from the config
    CacheBank array_;
    SlotReserver port_;
};

} // namespace clustersim

#endif // CLUSTERSIM_MEMORY_L2_CACHE_HH
