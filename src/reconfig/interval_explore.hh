/**
 * @file
 * Interval-based selection with exploration and a variable-length
 * interval -- the Figure 4 algorithm, the paper's primary mechanism.
 *
 * At the start of each program phase, every candidate configuration is
 * run for one interval and the best is kept until the next phase
 * change. Phase changes are detected from branch/memory-reference
 * frequencies (microarchitecture-independent, usable even during
 * exploration) and, in the stable state, from IPC. Frequent phase
 * changes grow the interval (instability > THRESH2 doubles it); if the
 * interval exceeds a bound the algorithm is abandoned in favour of the
 * most popular configuration.
 */

#ifndef CLUSTERSIM_RECONFIG_INTERVAL_EXPLORE_HH
#define CLUSTERSIM_RECONFIG_INTERVAL_EXPLORE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "reconfig/controller.hh"

namespace clustersim {

/** Tunables of the Figure 4 algorithm (paper defaults). */
struct IntervalExploreParams {
    std::uint64_t initialInterval = 10000;
    /** THRESH3: abandon reconfiguration past this interval length. */
    std::uint64_t maxInterval = 1000000000ULL;
    double thresh1 = 5.0;    ///< tolerated num_ipc_variations
    double thresh2 = 5.0;    ///< instability before interval doubling
    double ipcTolerance = 0.10; ///< relative IPC change significance
    /** memref/branch changes are significant past interval/100. */
    double metricDivisor = 100.0;
    /** Configurations explored, ascending. */
    std::vector<int> configs = {2, 4, 8, 16};
};

/** The Figure 4 controller. */
class IntervalExploreController
    : public CheckpointedController<IntervalExploreController>
{
  public:
    explicit IntervalExploreController(
        const IntervalExploreParams &params = {});

    void attach(int hw_clusters, int initial) override;
    void onCommit(const CommitEvent &ev) override;
    int targetClusters() const override { return target_; }
    std::string name() const override { return "interval-explore"; }

    std::unique_ptr<ReconfigController>
    clone() const override
    {
        return std::make_unique<IntervalExploreController>(*this);
    }

    // --- observability for tests and reports -------------------------------
    std::uint64_t intervalLength() const { return intervalLength_; }
    bool discontinued() const { return discontinued_; }
    bool stable() const { return stable_; }
    std::uint64_t phaseChanges() const { return phaseChanges_; }
    std::uint64_t explorations() const { return explorations_; }
    /** Explorations whose every interval measured zero IPC; the
     *  result is discarded and exploration restarts. */
    std::uint64_t failedExplorations() const
    {
        return failedExplorations_;
    }
    std::uint64_t changesFromBranches() const { return chgBranch_; }
    std::uint64_t changesFromMemrefs() const { return chgMem_; }
    std::uint64_t changesFromIpc() const { return chgIpc_; }

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.u64(intervalLength_);
        v.u64(instsInInterval_);
        v.u64(branchesInInterval_);
        v.u64(memrefsInInterval_);
        v.u64(intervalStartCycle_);
        v.boolean(startCycleValid_);
        v.boolean(haveReference_);
        v.boolean(stable_);
        v.boolean(discontinued_);
        v.f64(numIpcVariations_);
        v.f64(instability_);
        v.u64(refBranches_);
        v.u64(refMemrefs_);
        v.f64(refIpc_);
        v.u64(exploreIdx_, allConfigs_.size());
        v.list(exploreIpc_, allConfigs_.size(), [&](double &d) { v.f64(d); });
        // std::map iterates in key order: deterministic bytes.
        v.map(popularity_, hwClusters_, [&](int &cfg, std::uint64_t &n) {
            v.i64(cfg, 1, hwClusters_);
            v.u64(n);
        });
        v.i64(target_, 1, hwClusters_);
        v.u64(phaseChanges_);
        v.u64(explorations_);
        v.u64(failedExplorations_);
        v.u64(chgBranch_);
        v.u64(chgMem_);
        v.u64(chgIpc_);
    }

  private:
    void endInterval(Cycle now);
    void phaseChange();

    // simlint-ignore(F001): constructor identity, rebuilt by the factory
    IntervalExploreParams params_;
    /** Constructor-time candidate list; attach() filters per hardware. */
    // simlint-ignore(F001): constructor identity, rebuilt by the factory
    std::vector<int> allConfigs_;

    // interval accumulation
    std::uint64_t intervalLength_;
    std::uint64_t instsInInterval_ = 0;
    std::uint64_t branchesInInterval_ = 0;
    std::uint64_t memrefsInInterval_ = 0;
    Cycle intervalStartCycle_ = 0;
    bool startCycleValid_ = false;

    // Figure 4 state
    bool haveReference_ = false;
    bool stable_ = false;
    bool discontinued_ = false;
    double numIpcVariations_ = 0.0;
    double instability_ = 0.0;
    std::uint64_t refBranches_ = 0;
    std::uint64_t refMemrefs_ = 0;
    double refIpc_ = 0.0;

    // exploration
    std::size_t exploreIdx_ = 0;
    std::vector<double> exploreIpc_;

    // popularity for the discontinue fallback
    std::map<int, std::uint64_t> popularity_;

    int target_ = 16;

    std::uint64_t phaseChanges_ = 0;
    std::uint64_t explorations_ = 0;
    std::uint64_t failedExplorations_ = 0;
    std::uint64_t chgBranch_ = 0;
    std::uint64_t chgMem_ = 0;
    std::uint64_t chgIpc_ = 0;
};

} // namespace clustersim

#endif // CLUSTERSIM_RECONFIG_INTERVAL_EXPLORE_HH
