#include "reconfig/ineffectuality.hh"

#include "common/logging.hh"
#include "trace/observer.hh"

namespace clustersim {

IneffectualityController::IneffectualityController(
    const IneffectualityParams &params)
    : params_(params), allConfigs_(params.configs)
{
    CSIM_ASSERT(!params_.configs.empty());
    CSIM_ASSERT(params_.intervalLength >= 100);
    CSIM_ASSERT(params_.wastePerMispredict >= 0.0);
    CSIM_ASSERT(params_.ungateThreshold <= params_.gateThreshold,
                "hysteresis band inverted");
    ladderIdx_ = params_.configs.size() - 1;
    target_ = params_.configs.back();
}

void
IneffectualityController::attach(int hw_clusters, int initial)
{
    ReconfigController::attach(hw_clusters, initial);
    // Drop rungs the hardware cannot provide (from the constructor-time
    // ladder, so re-attaching to wider hardware regains them).
    std::vector<int> usable;
    for (int c : allConfigs_)
        if (c <= hw_clusters)
            usable.push_back(c);
    CSIM_ASSERT(!usable.empty());
    params_.configs = usable;

    // Reset all per-run state: start fully enabled (the ungated top of
    // the ladder) with empty accumulators, so a reused controller's
    // second run reproduces a fresh controller's decisions exactly.
    ladderIdx_ = params_.configs.size() - 1;
    target_ = params_.configs.back();
    instsInInterval_ = 0;
    mispredictsInInterval_ = 0;
    intervals_ = 0;
    gateEvents_ = 0;
    ungateEvents_ = 0;
    predictedWasted_ = 0.0;
    lastFraction_ = 0.0;

    CSIM_OBSERVE(onControllerAttach(name(), hw_clusters, target_));
}

void
IneffectualityController::onCommit(const CommitEvent &ev)
{
    instsInInterval_++;
    if (ev.mispredicted)
        mispredictsInInterval_++;
    if (instsInInterval_ >= params_.intervalLength)
        endInterval();
}

void
IneffectualityController::endInterval()
{
    double wasted = static_cast<double>(mispredictsInInterval_) *
                    params_.wastePerMispredict;
    // Fraction of all fetched slots (committed + predicted-discarded)
    // the front end is expected to have wasted this interval.
    lastFraction_ = wasted /
        (static_cast<double>(instsInInterval_) + wasted);
    predictedWasted_ += wasted;
    intervals_++;

    instsInInterval_ = 0;
    mispredictsInInterval_ = 0;

    if (lastFraction_ > params_.gateThreshold && ladderIdx_ > 0) {
        ladderIdx_--;
        gateEvents_++;
        target_ = params_.configs[ladderIdx_];
        CSIM_OBSERVE(onEvent(TraceEventKind::TargetChange, target_,
                             intervals_, lastFraction_));
    } else if (lastFraction_ < params_.ungateThreshold &&
               ladderIdx_ + 1 < params_.configs.size()) {
        ladderIdx_++;
        ungateEvents_++;
        target_ = params_.configs[ladderIdx_];
        CSIM_OBSERVE(onEvent(TraceEventKind::TargetChange, target_,
                             intervals_, lastFraction_));
    }
}

} // namespace clustersim
