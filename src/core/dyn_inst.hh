/**
 * @file
 * In-flight (renamed) instruction state.
 */

#ifndef CLUSTERSIM_CORE_DYN_INST_HH
#define CLUSTERSIM_CORE_DYN_INST_HH

#include <array>

#include "common/small_vec.hh"
#include "core/params.hh"
#include "workload/isa.hh"

namespace clustersim {

/**
 * A produced value: who made it, where it lives, and when it becomes
 * available in each cluster. Cross-cluster availability entries are
 * filled lazily when the first consumer in that cluster schedules a
 * transfer; later consumers in the same cluster share the transfer.
 */
struct ValueInfo {
    InstSeqNum producer = 0;  ///< 0 = initial architectural state
    Addr producerPc = 0;
    int cluster = 0;          ///< producing cluster
    Cycle completeAt = 0;     ///< neverCycle while in flight
    std::array<Cycle, maxClusters> availAt; ///< per-cluster arrival

    ValueInfo() { availAt.fill(neverCycle); }

    /**
     * Checkpointed state (see core/snapshot_io.hh).
     * @param clusters The donor's hardware cluster count.
     */
    template <class V>
    void
    fields(V &v, int clusters)
    {
        v.u64(producer);
        v.u64(producerPc);
        v.i64(cluster, 0, clusters - 1);
        v.u64(completeAt);
        for (Cycle &c : availAt)
            v.u64(c);
    }

    /** Initial architectural state: ready everywhere at cycle 0. */
    static ValueInfo
    initial()
    {
        ValueInfo v;
        v.completeAt = 0;
        v.availAt.fill(0);
        return v;
    }
};

/** A consumer waiting on an in-flight producer. */
struct Waiter {
    InstSeqNum consumer = 0;
    int srcIdx = 0;

    template <class V>
    void
    fields(V &v)
    {
        v.u64(consumer);
        v.i64(srcIdx, 0, 1);
    }
};

/** One in-flight instruction (a ROB entry). */
struct DynInst {
    MicroOp op;
    InstSeqNum seq = 0;
    int cluster = invalidCluster;

    // --- timing ------------------------------------------------------------
    Cycle fetchCycle = 0;
    Cycle dispatchCycle = 0;  ///< cycle dispatched/renamed
    Cycle enterIqCycle = 0;   ///< dispatch + dispatch-network latency
    Cycle issueCycle = neverCycle;
    Cycle completeCycle = neverCycle;

    // --- operands -----------------------------------------------------------
    /** Availability of each source in this instruction's cluster. */
    std::array<Cycle, 2> srcReady = {0, 0};
    /** Producer pc per source (criticality training); 0 = none. */
    std::array<Addr, 2> srcProducerPc = {0, 0};
    int pendingSrcs = 0;      ///< sources whose ready time is unknown
    bool issueScheduled = false;
    bool completed = false;

    /** The value this instruction produces (valid if op.dest != -1). */
    ValueInfo value;

    /**
     * Consumers registered while this instruction is in flight. Most
     * values have very few direct consumers before completion, so the
     * list lives inline; ROB ring slots retain any spilled capacity
     * across reuse, keeping the steady state allocation-free.
     */
    SmallVec<Waiter, 4> waiters;

    // --- memory -------------------------------------------------------------
    bool addrGenScheduled = false;
    Cycle addrReadyAt = neverCycle;   ///< address computed in-cluster
    Cycle addrAtBankAt = neverCycle;  ///< address arrived at LSQ/bank
    Cycle storeDataAt = neverCycle;   ///< store data ready in-cluster
    int bank = -1;                    ///< actual cache bank
    int predictedBank = -1;           ///< decentralized steering input
    bool loadIssuedToCache = false;

    // --- control ------------------------------------------------------------
    bool mispredicted = false; ///< fetch stalled behind this branch

    // --- bookkeeping ----------------------------------------------------------
    bool distant = false;  ///< issued >= distantDepth younger than head
    RegIndex prevDest = invalidReg; ///< logical dest (for reg freeing)
    int prevDestCluster = invalidCluster; ///< cluster of the previous
                                          ///< mapping of op.dest
    bool prevDestHadReg = false;    ///< previous mapping held a phys reg
    bool retryArmed = false; ///< pending load woken by an LSQ change

    /**
     * Checkpointed state (see core/snapshot_io.hh).
     * @param clusters The donor's hardware cluster count.
     * @param banks    The donor's L1 bank count.
     */
    template <class V>
    void
    fields(V &v, int clusters, int banks)
    {
        op.fields(v);
        v.u64(seq);
        v.i64(cluster, invalidCluster, clusters - 1);
        v.u64(fetchCycle);
        v.u64(dispatchCycle);
        v.u64(enterIqCycle);
        v.u64(issueCycle);
        v.u64(completeCycle);
        for (Cycle &c : srcReady)
            v.u64(c);
        for (Addr &pc : srcProducerPc)
            v.u64(pc);
        v.i64(pendingSrcs, 0, 2);
        v.boolean(issueScheduled);
        v.boolean(completed);
        value.fields(v, clusters);
        v.list(waiters, 4096, [&](Waiter &w) { w.fields(v); });
        v.boolean(addrGenScheduled);
        v.u64(addrReadyAt);
        v.u64(addrAtBankAt);
        v.u64(storeDataAt);
        v.i64(bank, -1, banks - 1);
        v.i64(predictedBank, -1, banks - 1);
        v.boolean(loadIssuedToCache);
        v.boolean(mispredicted);
        v.boolean(distant);
        v.i64(prevDest, invalidReg, numLogicalRegs - 1);
        v.i64(prevDestCluster, invalidCluster, clusters - 1);
        v.boolean(prevDestHadReg);
        v.boolean(retryArmed);
    }

    /**
     * Reinitialize a recycled ROB ring slot to the exact state a
     * freshly constructed entry would have (waiter capacity is the one
     * thing deliberately preserved). Must stay in sync with the field
     * initializers above.
     */
    void
    reset(const MicroOp &mop, InstSeqNum s)
    {
        op = mop;
        seq = s;
        cluster = invalidCluster;
        fetchCycle = 0;
        dispatchCycle = 0;
        enterIqCycle = 0;
        issueCycle = neverCycle;
        completeCycle = neverCycle;
        srcReady = {0, 0};
        srcProducerPc = {0, 0};
        pendingSrcs = 0;
        issueScheduled = false;
        completed = false;
        // `value` is deliberately NOT cleared: dispatch fully
        // reinitializes it for instructions with a destination, and it
        // is never read for the rest (only producers are reachable via
        // the rename table), so the 17-field re-init here would be pure
        // overhead in the per-instruction allocate path.
        waiters.clear();
        addrGenScheduled = false;
        addrReadyAt = neverCycle;
        addrAtBankAt = neverCycle;
        storeDataAt = neverCycle;
        bank = -1;
        predictedBank = -1;
        loadIssuedToCache = false;
        mispredicted = false;
        distant = false;
        prevDest = invalidReg;
        prevDestCluster = invalidCluster;
        prevDestHadReg = false;
        retryArmed = false;
    }
};

} // namespace clustersim

#endif // CLUSTERSIM_CORE_DYN_INST_HH
