/**
 * @file
 * Front end: trace-driven fetch with I-cache, branch unit, and the
 * fetch queue (Table 1: 8-wide across up to two basic blocks, 64-entry
 * fetch queue).
 *
 * The simulator is trace-driven: wrong-path instructions are not
 * generated, so on a misprediction fetch simply stalls behind the
 * offending branch until the core reports its resolution, at which
 * point fetch resumes after the configured redirect penalty.
 */

#ifndef CLUSTERSIM_CORE_FETCH_HH
#define CLUSTERSIM_CORE_FETCH_HH

#include <algorithm>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "core/params.hh"
#include "memory/cache_bank.hh"
#include "memory/l2_cache.hh"
#include "predictor/branch_unit.hh"
#include "workload/trace_source.hh"

namespace clustersim {

/** One fetched instruction waiting for dispatch. */
struct FetchEntry {
    MicroOp op;
    Cycle readyAt = 0;        ///< earliest dispatch cycle
    bool mispredicted = false; ///< fetch is stalled behind this branch

    template <class V>
    void
    fields(V &v)
    {
        op.fields(v);
        v.u64(readyAt);
        v.boolean(mispredicted);
    }
};

/** The fetch stage. */
class FetchUnit
{
  public:
    FetchUnit(const ProcessorConfig &cfg, TraceSource *trace,
              L2Cache *l2);

    /** Fetch up to fetchWidth instructions for cycle now. */
    void cycle(Cycle now);

    bool queueEmpty() const { return queueCount_ == 0; }
    std::size_t queueSize() const { return queueCount_; }
    const FetchEntry &front() const { return queue_[queueHead_]; }

    void
    pop()
    {
        queueHead_ = queueHead_ + 1 == queue_.size() ? 0 : queueHead_ + 1;
        --queueCount_;
    }

    /** A mispredicted branch resolved; fetch may resume at cycle c. */
    void resumeAt(Cycle c);

    bool stalledOnBranch() const { return stalledOnBranch_; }

    /**
     * Earliest cycle >= now at which cycle() could make progress, or
     * neverCycle when only an external event can unblock it: a branch
     * stall ends via resumeAt (an active-cycle cascade), and a full
     * queue drains only when dispatch pops (dispatch runs before fetch
     * within a cycle, so that cycle is busy anyway). Used by the
     * processor's idle-cycle skip.
     */
    Cycle
    nextActiveCycle(Cycle now) const
    {
        if (stalledOnBranch_ ||
            static_cast<int>(queueCount_) >= cfg_.fetchQueueSize)
            return neverCycle;
        return std::max(stallUntil_, now);
    }

    const BranchUnit &branchUnit() const { return branch_; }
    BranchUnit &branchUnit() { return branch_; }

    std::uint64_t fetched() const { return fetched_.value(); }
    std::uint64_t icacheMisses() const { return icacheMisses_.value(); }
    void resetStats();

    // --- checkpoint support -------------------------------------------------
    /**
     * Copy of all mutable fetch state. The cfg/trace/l2 wiring is
     * excluded: a snapshot is only restorable into a FetchUnit built
     * against an equal ProcessorConfig, and the processor restores the
     * trace source to its recorded position (see TraceSource).
     */
    struct Snapshot {
        BranchUnit branch;
        CacheBank icache;
        /** Queue contents in dispatch order (ring phase is invisible). */
        std::vector<FetchEntry> queue;
        std::optional<MicroOp> pending;
        bool stalledOnBranch = false;
        Cycle stallUntil = 0;
        Counter fetched;
        Counter icacheMisses;

        /** Checkpointed state (see core/snapshot_io.hh). */
        template <class V>
        void
        fields(V &v)
        {
            branch.fields(v);
            icache.fields(v);
            v.list(queue, 65536, [&](FetchEntry &e) { e.fields(v); });
            v.optional(pending, [&](MicroOp &op) { op.fields(v); });
            v.boolean(stalledOnBranch);
            v.u64(stallUntil);
            fetched.fields(v);
            icacheMisses.fields(v);
        }
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &s);

  private:
    const ProcessorConfig &cfg_;
    TraceSource *trace_;
    L2Cache *l2_;

    BranchUnit branch_;
    CacheBank icache_;

    /**
     * Fetch queue: a fixed-capacity ring of cfg.fetchQueueSize slots
     * sized once at construction, so the steady-state push/pop cycle
     * performs no heap allocation (a deque reallocates a block every
     * few entries at this churn rate).
     */
    std::vector<FetchEntry> queue_;
    std::size_t queueHead_ = 0;
    std::size_t queueCount_ = 0;

    /** Slot for the next push; entry stays default-reusable. */
    FetchEntry &
    pushSlot()
    {
        std::size_t i = queueHead_ + queueCount_;
        if (i >= queue_.size())
            i -= queue_.size();
        ++queueCount_;
        return queue_[i];
    }

    std::optional<MicroOp> pending_; ///< op stalled on an I-cache miss

    bool stalledOnBranch_ = false;
    Cycle stallUntil_ = 0;

    Counter fetched_;
    Counter icacheMisses_;
};

} // namespace clustersim

#endif // CLUSTERSIM_CORE_FETCH_HH
