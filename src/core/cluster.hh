/**
 * @file
 * One execution cluster: issue-queue and register-file occupancy plus
 * functional-unit schedulers.
 */

#ifndef CLUSTERSIM_CORE_CLUSTER_HH
#define CLUSTERSIM_CORE_CLUSTER_HH

#include <vector>

#include "common/resource.hh"
#include "core/params.hh"
#include "workload/isa.hh"

namespace clustersim {

/**
 * A cluster's structural resources. Occupancy counters change at
 * dispatch (allocate) and at scheduled issue/commit events (release);
 * the functional units are slot reservers so instruction latencies and
 * structural conflicts compose without a per-cycle scheduler scan.
 */
class Cluster
{
  public:
    Cluster(int id, const ClusterParams &params, const FuLatencies &lat);

    int id() const { return id_; }

    // --- issue queue ---------------------------------------------------------
    // Occupancy queries run inside the steering loop for every
    // dispatched instruction; keep them inline.
    bool
    iqHasSpace(bool fp) const
    {
        return fp ? fpIqUsed_ < params_.fpIssueQueue
                  : intIqUsed_ < params_.intIssueQueue;
    }
    void iqAllocate(bool fp);
    void iqRelease(bool fp);
    int iqOccupancy(bool fp) const { return fp ? fpIqUsed_ : intIqUsed_; }
    int iqTotalOccupancy() const { return fpIqUsed_ + intIqUsed_; }

    // --- register file ---------------------------------------------------------
    bool
    regHasSpace(bool fp) const
    {
        return fp ? fpRegsUsed_ < params_.fpRegs
                  : intRegsUsed_ < params_.intRegs;
    }
    void regAllocate(bool fp);
    void regRelease(bool fp);
    int
    regsFree(bool fp) const
    {
        return fp ? params_.fpRegs - fpRegsUsed_
                  : params_.intRegs - intRegsUsed_;
    }
    int regsUsed(bool fp) const { return fp ? fpRegsUsed_ : intRegsUsed_; }

    // --- functional units -------------------------------------------------------
    /**
     * Reserve the functional unit for the op class at or after cycle
     * ready; returns the issue cycle. Non-pipelined units (divides)
     * occupy their unit for the full latency.
     */
    Cycle reserveFu(OpClass op, Cycle ready);

    /** Execution latency of the op class. */
    Cycle latency(OpClass op) const;

    const ClusterParams &params() const { return params_; }

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.i64(intIqUsed_, 0, params_.intIssueQueue);
        v.i64(fpIqUsed_, 0, params_.fpIssueQueue);
        v.i64(intRegsUsed_, 0, params_.intRegs);
        v.i64(fpRegsUsed_, 0, params_.fpRegs);
        auto units = [&v](std::vector<SlotReserver> &kind) {
            v.expect(kind.size());
            for (SlotReserver &u : kind)
                u.fields(v);
        };
        units(intAlus_);
        units(intMultDivs_);
        units(fpAlus_);
        units(fpMultDivs_);
    }

  private:
    SlotReserver &unitFor(OpClass op);

    int id_;           // simlint-ignore(F001): identity, from the config
    ClusterParams params_;
    FuLatencies lat_;  // simlint-ignore(F001): identity, from the config

    int intIqUsed_ = 0;
    int fpIqUsed_ = 0;
    int intRegsUsed_ = 0;
    int fpRegsUsed_ = 0;

    /** One reserver per FU instance, grouped by kind. */
    std::vector<SlotReserver> intAlus_;
    std::vector<SlotReserver> intMultDivs_;
    std::vector<SlotReserver> fpAlus_;
    std::vector<SlotReserver> fpMultDivs_;
};

} // namespace clustersim

#endif // CLUSTERSIM_CORE_CLUSTER_HH
