/**
 * @file
 * Interval-based selection *without* exploration (Section 4.3).
 *
 * After each detected phase change the processor runs one interval at
 * the maximum cluster count while the degree of distant ILP is
 * measured; if the distant-instruction count exceeds the threshold
 * (160 per 1000-instruction interval in the paper), 16 clusters are
 * kept, otherwise 4. Because there is no exploration, small fixed
 * intervals are usable and reaction to phase changes is fast -- at the
 * cost of metric noise.
 */

#ifndef CLUSTERSIM_RECONFIG_INTERVAL_ILP_HH
#define CLUSTERSIM_RECONFIG_INTERVAL_ILP_HH

#include <cstdint>

#include "reconfig/controller.hh"

namespace clustersim {

/**
 * Tunables. The paper uses a 1K interval and threshold 160/1000; this
 * simulator's distant-ILP counts run higher than the authors' (its ROB
 * backs up behind misses more readily), so the default threshold is
 * recalibrated to 300 -- the value separating the scaling from the
 * non-scaling benchmark models (see EXPERIMENTS.md).
 */
struct IntervalIlpParams {
    std::uint64_t intervalLength = 1000;
    /** Distant instructions per 1000 committed needed to keep 16. */
    double distantPerMille = 300.0;
    int smallConfig = 4;
    int bigConfig = 16;
    double ipcTolerance = 0.10;
    double metricDivisor = 100.0;
};

/** The no-exploration interval controller. */
class IntervalIlpController
    : public CheckpointedController<IntervalIlpController>
{
  public:
    explicit IntervalIlpController(const IntervalIlpParams &params = {});

    void attach(int hw_clusters, int initial) override;
    void onCommit(const CommitEvent &ev) override;
    int targetClusters() const override { return target_; }
    std::string
    name() const override
    {
        return "interval-ilp-" + std::to_string(params_.intervalLength);
    }

    std::unique_ptr<ReconfigController>
    clone() const override
    {
        return std::make_unique<IntervalIlpController>(*this);
    }

    bool measuring() const { return measuring_; }
    std::uint64_t phaseChanges() const { return phaseChanges_; }

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.u64(instsInInterval_);
        v.u64(branchesInInterval_);
        v.u64(memrefsInInterval_);
        v.u64(distantInInterval_);
        v.u64(intervalStartCycle_);
        v.boolean(startCycleValid_);
        v.boolean(measuring_);
        v.boolean(haveReference_);
        v.u64(refBranches_);
        v.u64(refMemrefs_);
        v.f64(refIpc_);
        v.boolean(refIpcValid_);
        v.i64(target_, 1, hwClusters_);
        v.u64(phaseChanges_);
    }

  private:
    void endInterval(Cycle now);

    // simlint-ignore(F001): constructor identity, rebuilt by the factory
    IntervalIlpParams params_;
    // simlint-ignore(F001): constructor identity, rebuilt by the factory
    int origBig_;   ///< constructor-time bigConfig (pre-clamp)
    // simlint-ignore(F001): constructor identity, rebuilt by the factory
    int origSmall_; ///< constructor-time smallConfig (pre-clamp)

    std::uint64_t instsInInterval_ = 0;
    std::uint64_t branchesInInterval_ = 0;
    std::uint64_t memrefsInInterval_ = 0;
    std::uint64_t distantInInterval_ = 0;
    Cycle intervalStartCycle_ = 0;
    bool startCycleValid_ = false;

    bool measuring_ = true; ///< current interval measures distant ILP
    bool haveReference_ = false;
    std::uint64_t refBranches_ = 0;
    std::uint64_t refMemrefs_ = 0;
    double refIpc_ = 0.0;
    bool refIpcValid_ = false;

    int target_;
    std::uint64_t phaseChanges_ = 0;
};

} // namespace clustersim

#endif // CLUSTERSIM_RECONFIG_INTERVAL_ILP_HH
