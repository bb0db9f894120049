/**
 * @file
 * Ineffectuality-gating controller.
 *
 * After "Dynamic Ineffectuality-based Clustered Architectures" (see
 * PAPERS.md): fetched work that is later squashed behind a mispredicted
 * branch is *ineffectual* -- it occupies fetch, steering, and issue
 * resources without contributing committed instructions, and wide
 * cluster configurations amplify its cost. This controller predicts
 * the wasted-fetch fraction of each committed-instruction interval
 * from the mispredicted branches it observes (each mispredict costs
 * roughly a front-end refill of fetched-and-discarded slots) and walks
 * a configuration ladder: when the predicted wasted fraction exceeds
 * the gate threshold it disables clusters (one ladder step per
 * interval), and when the fraction falls below the lower re-enable
 * threshold it steps back up. The two thresholds form a hysteresis
 * band so a workload sitting near the boundary does not oscillate.
 */

#ifndef CLUSTERSIM_RECONFIG_INEFFECTUALITY_HH
#define CLUSTERSIM_RECONFIG_INEFFECTUALITY_HH

#include <cstdint>
#include <vector>

#include "reconfig/controller.hh"

namespace clustersim {

/** Tunables of the ineffectuality gate. */
struct IneffectualityParams {
    /** Decision interval, committed instructions. */
    std::uint64_t intervalLength = 10000;
    /**
     * Predicted wasted fetch slots per committed mispredicted branch:
     * the front end refills its pipeline behind every resolved
     * mispredict, discarding roughly depth x width slots (the default
     * matches the paper machine's 10-deep, 8-wide front end).
     */
    double wastePerMispredict = 80.0;
    /** Wasted fraction above which one ladder step down (gate). */
    double gateThreshold = 0.30;
    /** Wasted fraction below which one ladder step up (re-enable).
     *  Must be <= gateThreshold (the hysteresis band). */
    double ungateThreshold = 0.15;
    /** Configuration ladder, ascending cluster counts. */
    std::vector<int> configs = {2, 4, 8, 16};
};

/** The ineffectuality-gating controller. */
class IneffectualityController
    : public CheckpointedController<IneffectualityController>
{
  public:
    explicit IneffectualityController(
        const IneffectualityParams &params = {});

    void attach(int hw_clusters, int initial) override;
    void onCommit(const CommitEvent &ev) override;
    int targetClusters() const override { return target_; }
    std::string name() const override { return "ineffectuality"; }

    std::unique_ptr<ReconfigController>
    clone() const override
    {
        return std::make_unique<IneffectualityController>(*this);
    }

    // --- observability for tests and reports -------------------------------
    std::uint64_t intervals() const { return intervals_; }
    std::uint64_t gateEvents() const { return gateEvents_; }
    std::uint64_t ungateEvents() const { return ungateEvents_; }
    /** Cumulative predicted wasted fetch slots, all intervals. */
    double predictedWastedFetch() const { return predictedWasted_; }
    /** Wasted-fetch fraction of the last completed interval. */
    double lastWastedFraction() const { return lastFraction_; }

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.u64(instsInInterval_);
        v.u64(mispredictsInInterval_);
        v.u64(ladderIdx_, params_.configs.size() - 1);
        v.i64(target_, 1, hwClusters_);
        v.u64(intervals_);
        v.u64(gateEvents_);
        v.u64(ungateEvents_);
        v.f64(predictedWasted_);
        v.f64(lastFraction_);
    }

  private:
    void endInterval();

    // simlint-ignore(F001): constructor identity, rebuilt by the factory
    IneffectualityParams params_;
    /** Constructor-time ladder; attach() filters per hardware. */
    // simlint-ignore(F001): constructor identity, rebuilt by the factory
    std::vector<int> allConfigs_;

    // interval accumulation
    std::uint64_t instsInInterval_ = 0;
    std::uint64_t mispredictsInInterval_ = 0;

    /** Current rung on params_.configs (post-attach ladder). */
    std::size_t ladderIdx_ = 0;
    int target_;

    std::uint64_t intervals_ = 0;
    std::uint64_t gateEvents_ = 0;
    std::uint64_t ungateEvents_ = 0;
    double predictedWasted_ = 0.0;
    double lastFraction_ = 0.0;
};

} // namespace clustersim

#endif // CLUSTERSIM_RECONFIG_INEFFECTUALITY_HH
