/**
 * @file
 * Load-store queue, in both organizations:
 *
 *  - centralized (Section 2.1): one program-ordered queue of 15N
 *    entries co-located with the cache at cluster 0;
 *  - distributed (Section 5): 15 entries per cluster; a store whose
 *    address is unknown occupies a *dummy slot* in every active
 *    cluster's LSQ until its address broadcast resolves, blocking
 *    younger loads in those clusters (the Zyuban/Kogge policy the paper
 *    adopts).
 *
 * This class models ordering, occupancy, disambiguation, and
 * store-to-load forwarding; transport timing (hops to banks, broadcast
 * latency) is supplied by the processor through the cycle arguments.
 */

#ifndef CLUSTERSIM_MEMORY_LSQ_HH
#define CLUSTERSIM_MEMORY_LSQ_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/small_vec.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace clustersim {

/** Disambiguation verdict for a load with a known address. */
enum class LoadCheck {
    BlockedOlderStore, ///< an older store's address is not yet computed
    WaitStoreData,     ///< forwarding store found, but data time unknown
    Forward,           ///< forward from an older same-word store
    Access,            ///< may access the cache bank
};

/**
 * Result of LoadStoreQueue::checkLoad. Times may lie in the future: the
 * core schedules eagerly once all older store addresses are *computed*
 * (even if their visibility cycle has not yet arrived).
 */
struct LoadCheckResult {
    LoadCheck status = LoadCheck::Access;
    /** Forward: cycle the store data is ready; Access: earliest cycle
     *  the load may access the bank (all older stores visible). */
    Cycle readyCycle = 0;
    int srcCluster = 0;   ///< Forward: cluster holding the store data
    /**
     * The store whose state change can flip this verdict:
     * BlockedOlderStore -> the first unresolved older store (wakes on
     * setAddress); WaitStoreData -> the forwarding store (wakes on
     * setStoreData). 0 for the success verdicts. The core registers the
     * load on this store via addLoadWaiter so only genuinely unblocked
     * loads are re-checked.
     */
    InstSeqNum blockerSeq = 0;
};

/** One LSQ entry. */
struct LsqEntry {
    InstSeqNum seq = 0;
    bool isStore = false;
    int cluster = 0;             ///< cluster the op was steered to
    int bank = 0;                ///< cache bank (decentralized)
    Addr addr = 0;
    bool addrValid = false;
    Cycle addrKnownAt = neverCycle;  ///< at own cluster / the LSQ
    Cycle broadcastAt = neverCycle;  ///< at all other clusters (dist.)
    Cycle dataReadyAt = neverCycle;  ///< store data availability
    bool accessed = false;           ///< load has been sent to the cache
    int dummyClusters = 0;           ///< active clusters at allocation
    /** Pending loads to wake when this store resolves (addr or data). */
    SmallVec<InstSeqNum, 2> loadWaiters;

    /**
     * Checkpointed state (see core/snapshot_io.hh).
     * @param clusters   The donor's hardware cluster count.
     * @param banks      The donor's L1 bank count.
     * @param max_waiters The donor queue's capacity.
     */
    template <class V>
    void
    fields(V &v, int clusters, int banks, std::size_t max_waiters)
    {
        v.u64(seq);
        v.boolean(isStore);
        v.i64(cluster, 0, clusters - 1);
        v.i64(bank, 0, banks - 1);
        v.u64(addr);
        v.boolean(addrValid);
        v.u64(addrKnownAt);
        v.u64(broadcastAt);
        v.u64(dataReadyAt);
        v.boolean(accessed);
        v.i64(dummyClusters, 0, clusters);
        v.list(loadWaiters, max_waiters, [&](InstSeqNum &s) { v.u64(s); });
    }
};

/** The load-store queue. */
class LoadStoreQueue
{
  public:
    /**
     * @param distributed  Organization flag.
     * @param num_clusters Hardware cluster count.
     * @param per_cluster  Entries per cluster (15 in the paper).
     */
    LoadStoreQueue(bool distributed, int num_clusters, int per_cluster);

    /** Can an op be allocated? (Stores need dummy slots everywhere.) */
    bool canAllocate(bool is_store, int cluster, int active_clusters)
        const;

    /** Allocate in program order (seq must be increasing). */
    void allocate(InstSeqNum seq, bool is_store, int cluster,
                  int active_clusters);

    /** Record a computed effective address. */
    void setAddress(InstSeqNum seq, Addr addr, int bank,
                    Cycle known_at, Cycle broadcast_at);

    /** Record store data availability. */
    void setStoreData(InstSeqNum seq, Cycle when);

    /** Disambiguate a load whose address is known. */
    LoadCheckResult checkLoad(InstSeqNum seq) const;

    /** Mark a load as having been issued to the cache. */
    void markAccessed(InstSeqNum seq);

    /**
     * Register a pending load to be woken when the store identified by
     * a checkLoad blockerSeq resolves (address computed for
     * BlockedOlderStore, data ready for WaitStoreData). The wake moves
     * the load's seq into the woken list read by the core each cycle.
     */
    void addLoadWaiter(InstSeqNum store_seq, InstSeqNum load_seq);

    /** Loads woken by store resolutions since the last clear. */
    const std::vector<InstSeqNum> &wokenLoads() const { return woken_; }
    bool hasWokenLoads() const { return !woken_.empty(); }
    void clearWokenLoads() { woken_.clear(); }

    /** Release the entry at commit (entries commit in order). */
    void release(InstSeqNum seq);

    /** Entry accessor (must exist). */
    const LsqEntry &entry(InstSeqNum seq) const;

    std::size_t size() const { return size_; }
    bool distributed() const { return distributed_; }
    int numClusters() const { return numClusters_; }
    int perCluster() const { return perCluster_; }
    /** Occupied slots in `cluster` (index 0 only when centralized). */
    int occupancy(int cluster) const
    {
        return occupancy_[static_cast<std::size_t>(cluster)];
    }

    /** Forward iterator over live entries in program order. */
    class ConstIterator
    {
      public:
        ConstIterator(const LoadStoreQueue *q, std::size_t off)
            : q_(q), off_(off)
        {}
        const LsqEntry &operator*() const { return q_->at(off_); }
        const LsqEntry *operator->() const { return &q_->at(off_); }
        ConstIterator &operator++() { ++off_; return *this; }
        bool operator==(const ConstIterator &o) const
        {
            return off_ == o.off_;
        }
        bool operator!=(const ConstIterator &o) const
        {
            return off_ != o.off_;
        }

      private:
        const LoadStoreQueue *q_;
        std::size_t off_;
    };

    /** Range over live entries, program order (invariant checker). */
    class EntriesView
    {
      public:
        explicit EntriesView(const LoadStoreQueue *q) : q_(q) {}
        ConstIterator begin() const { return {q_, 0}; }
        ConstIterator end() const { return {q_, q_->size_}; }

      private:
        const LoadStoreQueue *q_;
    };

    /** All live entries, program order (for the invariant checker). */
    EntriesView entries() const { return EntriesView(this); }

    std::uint64_t forwards() const { return forwards_.value(); }
    std::uint64_t blockedChecks() const { return blocked_.value(); }
    void resetStats();

    /**
     * Checkpointed state (see core/snapshot_io.hh).
     * @param banks The donor's L1 bank count: entry banks index it.
     */
    template <class V>
    void
    fields(V &v, int banks)
    {
        v.expect(slots_.size());
        for (LsqEntry &e : slots_)
            e.fields(v, numClusters_, banks, slots_.size());
        v.u64(head_, slots_.size() - 1);
        v.u64(size_, slots_.size());
        v.expect(seqMap_.size());
        for (std::uint32_t &s : seqMap_)
            v.u32(s, static_cast<std::uint32_t>(slots_.size() - 1));
        v.expect(storeRing_.size());
        for (std::uint32_t &s : storeRing_)
            v.u32(s, static_cast<std::uint32_t>(slots_.size() - 1));
        v.u64(storeHead_, storeRing_.size() - 1);
        v.u64(storeCount_, storeRing_.size());
        v.expect(occupancy_.size());
        for (int &o : occupancy_)
            v.i64(o, 0, perCluster_ * numClusters_);
        v.list(woken_, slots_.size(), [&](InstSeqNum &s) { v.u64(s); });
        forwards_.fields(v);
        blocked_.fields(v);
    }

  private:
    LsqEntry *find(InstSeqNum seq);
    const LsqEntry *find(InstSeqNum seq) const;

    /** Cycle at which a store's address is visible in `cluster`. */
    Cycle visibleAt(const LsqEntry &store, int cluster) const;

    bool distributed_; // simlint-ignore(F001): organization, from the config
    int numClusters_;  // simlint-ignore(F001): organization, from the config
    int perCluster_;   // simlint-ignore(F001): organization, from the config

    /** Move a resolved store's waiters onto the woken list. */
    void wakeWaiters(LsqEntry &e);

    /** Slot index for the entry at ring offset off from the head. */
    std::size_t
    slot(std::size_t off) const
    {
        std::size_t i = head_ + off;
        if (i >= slots_.size())
            i -= slots_.size();
        return i;
    }

    const LsqEntry &at(std::size_t off) const { return slots_[slot(off)]; }
    LsqEntry &at(std::size_t off) { return slots_[slot(off)]; }

    /**
     * Fixed-capacity ring, program order (seq ascending) from head_.
     * Every entry pins at least one per-cluster slot, so the live count
     * never exceeds perCluster * numClusters in either organization;
     * slots are reset in place on reuse, so the steady state performs
     * no heap allocation (waiter lists keep any spilled capacity).
     */
    std::vector<LsqEntry> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;

    /**
     * Direct seq -> slot map for O(1) find(). Indexed by
     * `seq & (seqMapSize - 1)` and written at allocate; entries are
     * never cleared. A lookup is verified against the slot's stored
     * seq and its liveness (ring offset < size_), so stale map entries
     * for retired instructions are harmlessly rejected. Two live
     * entries can never collide because allocate() asserts the live
     * seq span stays below seqMapSize (the span is bounded by the ROB
     * window, far below 2048 for every paper machine).
     */
    static constexpr std::size_t seqMapSize = 2048;
    std::vector<std::uint32_t> seqMap_;

    /**
     * Slot indices of the live stores, a ring in program order. The
     * stores form a FIFO subsequence of the entry FIFO and slot indices
     * are stable for an entry's lifetime, so checkLoad can walk just
     * the older stores instead of every older entry.
     */
    std::size_t
    storeSlot(std::size_t off) const
    {
        std::size_t i = storeHead_ + off;
        if (i >= storeRing_.size())
            i -= storeRing_.size();
        return i;
    }
    std::vector<std::uint32_t> storeRing_;
    std::size_t storeHead_ = 0;
    std::size_t storeCount_ = 0;
    std::vector<int> occupancy_; ///< per cluster (index 0 only when
                                 ///< centralized)
    std::vector<InstSeqNum> woken_; ///< loads unblocked since last clear

    mutable Counter forwards_;
    mutable Counter blocked_;
};

} // namespace clustersim

#endif // CLUSTERSIM_MEMORY_LSQ_HH
