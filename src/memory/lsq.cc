#include "memory/lsq.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/observer.hh"

// simlint: hot-path

namespace clustersim {

// simlint: cold-begin -- entry rings are sized once at construction

LoadStoreQueue::LoadStoreQueue(bool distributed, int num_clusters,
                               int per_cluster)
    : distributed_(distributed), numClusters_(num_clusters),
      perCluster_(per_cluster),
      occupancy_(static_cast<std::size_t>(num_clusters), 0)
{
    CSIM_ASSERT(num_clusters >= 1 && per_cluster >= 1);
    slots_.resize(static_cast<std::size_t>(num_clusters) *
                  static_cast<std::size_t>(per_cluster));
    storeRing_.resize(slots_.size());
    seqMap_.assign(seqMapSize, 0);
    // A woken load is a live LSQ entry, so the wake list is bounded by
    // the entry count; reserving keeps wakeWaiters() allocation-free.
    woken_.reserve(slots_.size());
}

// simlint: cold-end

bool
LoadStoreQueue::canAllocate(bool is_store, int cluster,
                            int active_clusters) const
{
    if (!distributed_) {
        int cap = perCluster_ * numClusters_;
        return static_cast<int>(size_) < cap;
    }
    if (is_store) {
        // Needs a dummy slot in every active cluster.
        for (int c = 0; c < active_clusters; c++)
            if (occupancy_[static_cast<std::size_t>(c)] >= perCluster_)
                return false;
        return true;
    }
    return occupancy_[static_cast<std::size_t>(cluster)] < perCluster_;
}

void
LoadStoreQueue::allocate(InstSeqNum seq, bool is_store, int cluster,
                         int active_clusters)
{
    CSIM_ASSERT(size_ == 0 || at(size_ - 1).seq < seq,
                "LSQ allocation out of program order");
    CSIM_ASSERT(size_ < slots_.size(), "LSQ ring overflow");
    CSIM_ASSERT(size_ == 0 || seq - at(0).seq < seqMapSize,
                "LSQ live seq span exceeds the find() map window");
    // Reset the recycled slot in place (waiter list keeps capacity).
    std::size_t idx = slot(size_);
    LsqEntry &e = slots_[idx];
    ++size_;
    seqMap_[seq & (seqMapSize - 1)] = static_cast<std::uint32_t>(idx);
    if (is_store) {
        storeRing_[storeSlot(storeCount_)] =
            static_cast<std::uint32_t>(idx);
        ++storeCount_;
    }
    e.seq = seq;
    e.isStore = is_store;
    e.cluster = cluster;
    e.bank = 0;
    e.addr = 0;
    e.addrValid = false;
    e.addrKnownAt = neverCycle;
    e.broadcastAt = neverCycle;
    e.dataReadyAt = neverCycle;
    e.accessed = false;
    e.dummyClusters = 0;
    e.loadWaiters.clear();
    if (distributed_) {
        if (is_store) {
            e.dummyClusters = active_clusters;
            for (int c = 0; c < active_clusters; c++)
                occupancy_[static_cast<std::size_t>(c)]++;
        } else {
            occupancy_[static_cast<std::size_t>(cluster)]++;
        }
    }
    CSIM_OBSERVE(onLsqAllocate(*this));
}

LsqEntry *
LoadStoreQueue::find(InstSeqNum seq)
{
    // O(1) via the seq map; the seq and liveness checks reject stale
    // map entries, so this returns exactly what a search of the live
    // ring would (an entry iff seq is currently in the queue).
    std::size_t idx = seqMap_[seq & (seqMapSize - 1)];
    LsqEntry &e = slots_[idx];
    if (e.seq != seq)
        return nullptr;
    std::size_t off = idx >= head_ ? idx - head_
                                   : idx + slots_.size() - head_;
    if (off >= size_)
        return nullptr;
    return &e;
}

const LsqEntry *
LoadStoreQueue::find(InstSeqNum seq) const
{
    return const_cast<LoadStoreQueue *>(this)->find(seq);
}

void
LoadStoreQueue::setAddress(InstSeqNum seq, Addr addr, int bank,
                           Cycle known_at, Cycle broadcast_at)
{
    LsqEntry *e = find(seq);
    CSIM_ASSERT(e, "setAddress: unknown LSQ entry");
    CSIM_ASSERT(!e->addrValid, "address set twice");
    e->addr = addr;
    e->bank = bank;
    e->addrValid = true;
    e->addrKnownAt = known_at;
    e->broadcastAt = broadcast_at;
    if (distributed_ && e->isStore) {
        // Resolution frees the dummy slots everywhere except the bank
        // that will service the store.
        for (int c = 0; c < e->dummyClusters; c++) {
            if (c != bank)
                occupancy_[static_cast<std::size_t>(c)]--;
        }
        if (bank >= e->dummyClusters) {
            // Bank outside the dummy range (active set grew): the entry
            // moves to the bank's cluster.
            occupancy_[static_cast<std::size_t>(bank)]++;
        }
        e->dummyClusters = 0;
    }
    // A load blocked on this store's unknown address can now make
    // progress (BlockedOlderStore verdicts wake here).
    wakeWaiters(*e);
    CSIM_OBSERVE(onLsqResolve(*this));
}

void
LoadStoreQueue::setStoreData(InstSeqNum seq, Cycle when)
{
    LsqEntry *e = find(seq);
    CSIM_ASSERT(e && e->isStore, "setStoreData: not a store");
    e->dataReadyAt = when;
    // WaitStoreData verdicts wake here.
    wakeWaiters(*e);
}

void
LoadStoreQueue::addLoadWaiter(InstSeqNum store_seq, InstSeqNum load_seq)
{
    LsqEntry *e = find(store_seq);
    CSIM_ASSERT(e && e->isStore, "addLoadWaiter: blocker is not a store");
    e->loadWaiters.push_back(load_seq);
}

void
LoadStoreQueue::wakeWaiters(LsqEntry &e)
{
    for (InstSeqNum s : e.loadWaiters)
        woken_.push_back(s);
    e.loadWaiters.clear();
}

Cycle
LoadStoreQueue::visibleAt(const LsqEntry &store, int cluster) const
{
    if (!store.addrValid)
        return neverCycle;
    if (!distributed_)
        return store.addrKnownAt;
    return cluster == store.bank ? store.addrKnownAt : store.broadcastAt;
}

LoadCheckResult
LoadStoreQueue::checkLoad(InstSeqNum seq) const
{
    const LsqEntry *load = find(seq);
    CSIM_ASSERT(load && !load->isStore && load->addrValid,
                "checkLoad: not a resolved load");

    LoadCheckResult res;
    const LsqEntry *fwd = nullptr;
    Cycle fwd_visible = 0;
    Cycle visible_bound = load->addrKnownAt;
    int where = distributed_ ? load->bank : 0;

    for (std::size_t off = 0; off < storeCount_; ++off) {
        const LsqEntry &e = slots_[storeRing_[storeSlot(off)]];
        if (e.seq >= seq)
            break;
        if (!e.addrValid) {
            // Address not even computed yet: its resolution time is
            // unknown, so the load must wait in simulated time.
            blocked_.inc();
            res.status = LoadCheck::BlockedOlderStore;
            res.blockerSeq = e.seq;
            return res;
        }
        Cycle vis = visibleAt(e, where);
        visible_bound = std::max(visible_bound, vis);
        if ((e.addr >> 3) == (load->addr >> 3)) {
            fwd = &e; // latest older same-word store wins
            fwd_visible = vis;
        }
    }

    if (fwd) {
        if (fwd->dataReadyAt == neverCycle) {
            res.status = LoadCheck::WaitStoreData;
            res.blockerSeq = fwd->seq;
            return res;
        }
        forwards_.inc();
        res.status = LoadCheck::Forward;
        res.readyCycle = std::max(fwd->dataReadyAt, fwd_visible);
        res.srcCluster = fwd->cluster;
        return res;
    }

    res.status = LoadCheck::Access;
    res.readyCycle = visible_bound;
    return res;
}

void
LoadStoreQueue::markAccessed(InstSeqNum seq)
{
    LsqEntry *e = find(seq);
    CSIM_ASSERT(e, "markAccessed: unknown entry");
    CSIM_OBSERVE(onLoadAccess(*this, seq));
    e->accessed = true;
}

void
LoadStoreQueue::release(InstSeqNum seq)
{
    CSIM_ASSERT(size_ > 0 && at(0).seq == seq,
                "LSQ release out of order");
    LsqEntry &e = at(0);
    // A store resolves (addr + data) before it can complete and commit,
    // so its waiters have always been drained by now; defensively wake
    // any stragglers rather than strand them.
    wakeWaiters(e);
    if (distributed_) {
        if (e.isStore) {
            if (e.dummyClusters > 0) {
                // Committing an unresolved store cannot happen: commit
                // waits for the address.
                CSIM_PANIC("releasing unresolved store");
            }
            occupancy_[static_cast<std::size_t>(e.bank)]--;
        } else {
            occupancy_[static_cast<std::size_t>(e.cluster)]--;
        }
    }
    if (e.isStore) {
        storeHead_ = storeSlot(1);
        --storeCount_;
    }
    head_ = slot(1);
    --size_;
    CSIM_OBSERVE(onLsqRelease(*this, seq));
}

const LsqEntry &
LoadStoreQueue::entry(InstSeqNum seq) const
{
    const LsqEntry *e = find(seq);
    CSIM_ASSERT(e, "entry: unknown LSQ entry");
    return *e;
}

void
LoadStoreQueue::resetStats()
{
    forwards_.reset();
    blocked_.reset();
}

} // namespace clustersim
