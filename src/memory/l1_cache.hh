/**
 * @file
 * First-level data cache, in both of the paper's organizations
 * (Table 2):
 *
 *  - centralized: one 32 KB 2-way array, 4-way word-interleaved (four
 *    banks, one access each per cycle), 6-cycle RAM, co-located with
 *    cluster 0;
 *  - decentralized: one single-ported 16 KB 2-way bank per cluster with
 *    8-byte lines and 4-cycle RAM, word-interleaved across the *active*
 *    clusters.
 */

#ifndef CLUSTERSIM_MEMORY_L1_CACHE_HH
#define CLUSTERSIM_MEMORY_L1_CACHE_HH

#include <memory>
#include <vector>

#include "common/resource.hh"
#include "common/stats.hh"
#include "memory/cache_bank.hh"
#include "memory/l2_cache.hh"

namespace clustersim {

/** L1 configuration (defaults per Table 2). */
struct L1Params {
    bool decentralized = false;

    // Centralized organization.
    std::size_t sizeBytes = 32 * 1024;
    int ways = 2;
    int lineBytes = 32;
    int banks = 4;           ///< word-interleave factor / ports
    Cycle ramLatency = 6;

    // Decentralized organization (per cluster bank).
    std::size_t bankSizeBytes = 16 * 1024;
    int bankWays = 2;
    int bankLineBytes = 8;
    Cycle bankRamLatency = 4;
};

/**
 * The L1 data cache. Timing for the *network* part of an access (the
 * hops between the requesting cluster and the cache/bank) is handled by
 * the processor; this class charges bank-port contention, RAM latency,
 * and L2/memory latency on misses.
 */
class L1Cache
{
  public:
    /**
     * @param params       Organization parameters.
     * @param num_clusters Hardware cluster count (bank count when
     *                     decentralized).
     * @param l2           The backing L2 (not owned).
     */
    L1Cache(const L1Params &params, int num_clusters, L2Cache *l2);

    /**
     * Bank index for an address: word-interleaved over active banks
     * (decentralized) or over the fixed port count (centralized).
     */
    int bankFor(Addr addr, int active_banks) const;

    /**
     * Perform an access at the given bank.
     * @param addr        Byte address.
     * @param write       True for stores.
     * @param when        Cycle the request reaches the bank.
     * @param bank        Bank index (from bankFor).
     * @param l2_hops_lat Extra one-way latency from this bank to the L2
     *                    on a miss (0 for the centralized cache).
     * @return Cycle the data is ready at the bank.
     */
    Cycle access(Addr addr, bool write, Cycle when, int bank,
                 Cycle l2_hops_lat);

    /**
     * Flush all banks (decentralized reconfiguration) starting at cycle
     * when. Returns the number of dirty lines written back; the caller
     * charges the stall.
     */
    std::uint64_t flushAll(Cycle when);

    std::uint64_t accesses() const;
    std::uint64_t misses() const;
    double missRate() const;
    void resetStats();

    const L1Params &params() const { return params_; }
    int numBanks() const { return static_cast<int>(arrays_.size()); }

    // --- checkpoint support -------------------------------------------------
    /**
     * Copy of the mutable L1 state: bank array contents (tags, dirty
     * bits, stats) and port reservations. Params and the L2 pointer
     * are construction-time wiring and excluded.
     */
    struct Snapshot {
        std::vector<CacheBank> arrays;
        std::vector<SlotReserver> ports;

        /** Checkpointed state (see core/snapshot_io.hh). */
        template <class V>
        void
        fields(V &v)
        {
            v.expect(arrays.size());
            for (CacheBank &b : arrays)
                b.fields(v);
            v.expect(ports.size());
            for (SlotReserver &p : ports)
                p.fields(v);
        }
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &s);

  private:
    L1Params params_;
    L2Cache *l2_;
    /** One array per bank (a single shared array when centralized). */
    std::vector<std::unique_ptr<CacheBank>> arrays_;
    std::vector<SlotReserver> ports_;
};

} // namespace clustersim

#endif // CLUSTERSIM_MEMORY_L1_CACHE_HH
