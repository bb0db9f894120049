#include "interconnect/network.hh"

#include "common/logging.hh"
#include "trace/observer.hh"

namespace clustersim {

Network::Network(std::unique_ptr<Topology> topology, Cycle hop_latency)
    : topology_(std::move(topology)), hopLatency_(hop_latency)
{
    CSIM_ASSERT(topology_, "network needs a topology");
    CSIM_ASSERT(hop_latency >= 1);
    maxHops_ = topology_->maxHops();
    nodes_ = topology_->numNodes();
    occupancy_.assign(static_cast<std::size_t>(topology_->numLinks()),
                      std::vector<Cycle>(windowSize, neverCycle));

    std::size_t n = static_cast<std::size_t>(nodes_);
    routes_.resize(n * n);
    hopsTable_.resize(n * n);
    for (int s = 0; s < nodes_; s++) {
        for (int d = 0; d < nodes_; d++) {
            std::size_t idx = static_cast<std::size_t>(s) * n +
                              static_cast<std::size_t>(d);
            routes_[idx] = topology_->route(s, d);
            hopsTable_[idx] = topology_->hops(s, d);
        }
    }
}

Cycle
Network::reserveLink(int link, Cycle want)
{
    auto &slots = occupancy_[static_cast<std::size_t>(link)];
    // Occupied slots hold their owning cycle number; any other value
    // (including stale ones from > windowSize cycles ago) means free.
    Cycle t = want;
    for (;;) {
        Cycle &slot = slots[t % windowSize];
        if (slot != t) {
            slot = t;
            return t;
        }
        t++;
    }
}

Cycle
Network::schedule(int src, int dst, Cycle ready)
{
    if (src == dst)
        return ready;

    const std::vector<int> &links =
        routes_[static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(nodes_) +
                static_cast<std::size_t>(dst)];
    Cycle depart = ready;
    Cycle arrive = ready;
    for (int link : links) {
        depart = reserveLink(link, depart);
        arrive = depart + hopLatency_;
        depart = arrive; // earliest start of the next hop
    }

    CSIM_OBSERVE(onTransfer(src, dst, static_cast<int>(links.size()),
                            maxHops_, arrive - ready));
    transfers_.inc();
    totalHops_.inc(links.size());
    totalLatency_.inc(arrive - ready);
    return arrive;
}

void
Network::resetStats()
{
    transfers_.reset();
    totalHops_.reset();
    totalLatency_.reset();
}

Network::Snapshot
Network::snapshot() const
{
    return Snapshot{occupancy_, transfers_, totalHops_, totalLatency_};
}

void
Network::restore(const Snapshot &s)
{
    CSIM_ASSERT(s.occupancy.size() == occupancy_.size(),
                "network snapshot from a different topology");
    occupancy_ = s.occupancy;
    transfers_ = s.transfers;
    totalHops_ = s.totalHops;
    totalLatency_ = s.totalLatency;
}

} // namespace clustersim
