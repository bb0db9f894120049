#include "reconfig/interval_ilp.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "trace/observer.hh"

namespace clustersim {

IntervalIlpController::IntervalIlpController(
    const IntervalIlpParams &params)
    : params_(params), origBig_(params.bigConfig),
      origSmall_(params.smallConfig), target_(params.bigConfig)
{
    CSIM_ASSERT(params_.intervalLength >= 100);
}

void
IntervalIlpController::attach(int hw_clusters, int initial)
{
    ReconfigController::attach(hw_clusters, initial);
    // Clamp from the constructor-time values so re-attaching to wider
    // hardware regains the original configurations.
    params_.bigConfig = std::min(origBig_, hw_clusters);
    params_.smallConfig = std::min(origSmall_, hw_clusters);
    target_ = params_.bigConfig;
    measuring_ = true;

    // Reset all per-run state so a reused controller's second run
    // reproduces a fresh controller's decisions exactly.
    instsInInterval_ = 0;
    branchesInInterval_ = 0;
    memrefsInInterval_ = 0;
    distantInInterval_ = 0;
    intervalStartCycle_ = 0;
    startCycleValid_ = false;
    haveReference_ = false;
    refBranches_ = 0;
    refMemrefs_ = 0;
    refIpc_ = 0.0;
    refIpcValid_ = false;
    phaseChanges_ = 0;

    CSIM_OBSERVE(onControllerAttach(name(), hw_clusters, target_));
}

void
IntervalIlpController::onCommit(const CommitEvent &ev)
{
    if (!startCycleValid_) {
        intervalStartCycle_ = ev.cycle;
        startCycleValid_ = true;
    }
    instsInInterval_++;
    if (isControlOp(ev.op))
        branchesInInterval_++;
    if (isMemOp(ev.op))
        memrefsInInterval_++;
    if (ev.distant)
        distantInInterval_++;
    if (instsInInterval_ >= params_.intervalLength)
        endInterval(ev.cycle);
}

void
IntervalIlpController::endInterval(Cycle now)
{
    double ipc = now > intervalStartCycle_
        ? static_cast<double>(instsInInterval_) /
              static_cast<double>(now - intervalStartCycle_)
        : 0.0;
    std::uint64_t branches = branchesInInterval_;
    std::uint64_t memrefs = memrefsInInterval_;
    std::uint64_t distant = distantInInterval_;

    instsInInterval_ = 0;
    branchesInInterval_ = 0;
    memrefsInInterval_ = 0;
    distantInInterval_ = 0;
    startCycleValid_ = false;

    double metric_sig =
        static_cast<double>(params_.intervalLength) /
        params_.metricDivisor;
    auto differs = [&](std::uint64_t a, std::uint64_t b) {
        return metricDiffers(a, b, metric_sig);
    };

    if (measuring_) {
        // Interval ran at bigConfig: decide from the distant-ILP degree.
        double per_mille = 1000.0 * static_cast<double>(distant) /
            static_cast<double>(params_.intervalLength);
        target_ = per_mille > params_.distantPerMille
            ? params_.bigConfig
            : params_.smallConfig;
        CSIM_OBSERVE(onEvent(TraceEventKind::IlpDecide, target_, distant,
                             per_mille));
        measuring_ = false;
        haveReference_ = true;
        refBranches_ = branches;
        refMemrefs_ = memrefs;
        refIpcValid_ = false;
        return;
    }

    if (!refIpcValid_) {
        // First interval in the chosen configuration sets the IPC
        // reference.
        refIpc_ = ipc;
        refIpcValid_ = true;
    }

    bool change = differs(branches, refBranches_) ||
                  differs(memrefs, refMemrefs_) ||
                  (refIpc_ > 0.0 && std::abs(ipc - refIpc_) / refIpc_ >
                                        params_.ipcTolerance);
    if (change) {
        phaseChanges_++;
        measuring_ = true;
        haveReference_ = false;
        target_ = params_.bigConfig;
        CSIM_OBSERVE(onEvent(TraceEventKind::PhaseChange,
                             static_cast<std::int64_t>(phaseChanges_), 0,
                             ipc));
    }
}

} // namespace clustersim
