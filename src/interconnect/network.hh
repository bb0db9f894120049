/**
 * @file
 * Cycle-accurate link-reservation network model.
 *
 * The data network carries register values, cache requests/replies and
 * store-address broadcasts. Each unidirectional link carries one
 * transfer per cycle; a multi-hop transfer reserves its links hop by
 * hop, waiting at intermediate nodes when a link is busy.
 */

#ifndef CLUSTERSIM_INTERCONNECT_NETWORK_HH
#define CLUSTERSIM_INTERCONNECT_NETWORK_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "interconnect/topology.hh"

namespace clustersim {

/**
 * Network: schedules point-to-point transfers over a Topology.
 *
 * Link occupancy is tracked in a sliding window of cycles; a request for
 * a busy cycle is pushed to the next free cycle of that link. This
 * models the queuing component of communication latency without a full
 * event queue.
 */
class Network
{
  public:
    /**
     * @param topology    Owned topology.
     * @param hop_latency Cycles per hop when uncontended (paper: 1).
     */
    Network(std::unique_ptr<Topology> topology, Cycle hop_latency);

    /**
     * Schedule a one-word transfer from src to dst whose payload is
     * ready at cycle ready.
     * @return Arrival cycle at dst (== ready when src == dst).
     */
    Cycle schedule(int src, int dst, Cycle ready);

    /**
     * Hop distance helper (no scheduling). Served from a table built at
     * construction: this runs for every dispatched instruction and
     * every redirect, where a virtual call per query is measurable.
     */
    int
    hops(int src, int dst) const
    {
        return hopsTable_[static_cast<std::size_t>(src) *
                              static_cast<std::size_t>(nodes_) +
                          static_cast<std::size_t>(dst)];
    }

    /** Uncontended latency between two nodes. */
    Cycle
    latency(int src, int dst) const
    {
        return static_cast<Cycle>(hops(src, dst)) * hopLatency_;
    }

    const Topology &topology() const { return *topology_; }
    Cycle hopLatency() const { return hopLatency_; }

    /** Topology diameter, cached at construction (maxHops is O(n^2)). */
    int maxHops() const { return maxHops_; }

    // --- statistics --------------------------------------------------------
    std::uint64_t transfers() const { return transfers_.value(); }
    std::uint64_t totalHops() const { return totalHops_.value(); }
    /** Total latency including queuing, summed over transfers. */
    std::uint64_t totalLatency() const { return totalLatency_.value(); }

    double
    avgLatency() const
    {
        return transfers() ? static_cast<double>(totalLatency()) /
                                 static_cast<double>(transfers())
                           : 0.0;
    }

    void resetStats();

    // --- checkpoint support -------------------------------------------------
    /**
     * Copy of the mutable network state. The topology itself is
     * immutable after construction and identified by the processor
     * configuration, so it is not part of the snapshot.
     */
    struct Snapshot {
        std::vector<std::vector<Cycle>> occupancy;
        Counter transfers;
        Counter totalHops;
        Counter totalLatency;

        /**
         * Checkpointed state (see core/snapshot_io.hh). The link count
         * and window size are topology shape.
         */
        template <class V>
        void
        fields(V &v)
        {
            v.expect(occupancy.size());
            for (std::vector<Cycle> &link : occupancy) {
                v.expect(link.size());
                for (Cycle &c : link)
                    v.u64(c);
            }
            transfers.fields(v);
            totalHops.fields(v);
            totalLatency.fields(v);
        }
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &s);

  private:
    /** Reserve the first free slot of link at or after cycle want. */
    Cycle reserveLink(int link, Cycle want);

    std::unique_ptr<Topology> topology_;
    Cycle hopLatency_;
    int maxHops_;
    int nodes_;

    /**
     * Routes and hop counts for every (src, dst) pair, precomputed at
     * construction. Topology::route() builds a fresh vector per call;
     * schedule() runs several times per simulated instruction, so it
     * walks these cached routes instead of allocating.
     */
    std::vector<std::vector<int>> routes_;
    std::vector<int> hopsTable_;

    /** Per-link occupancy window: slot s holds the cycle that owns it. */
    static constexpr std::size_t windowSize = 1024;
    std::vector<std::vector<Cycle>> occupancy_;

    Counter transfers_;
    Counter totalHops_;
    Counter totalLatency_;
};

} // namespace clustersim

#endif // CLUSTERSIM_INTERCONNECT_NETWORK_HH
