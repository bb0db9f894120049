#include "reconfig/interval_explore.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "trace/observer.hh"

namespace clustersim {

IntervalExploreController::IntervalExploreController(
    const IntervalExploreParams &params)
    : params_(params), allConfigs_(params.configs),
      intervalLength_(params.initialInterval),
      exploreIpc_(params.configs.size(), 0.0)
{
    CSIM_ASSERT(!params_.configs.empty());
    target_ = params_.configs.front();
}

void
IntervalExploreController::attach(int hw_clusters, int initial)
{
    ReconfigController::attach(hw_clusters, initial);
    // Drop configurations the hardware cannot provide (from the
    // constructor-time list, so re-attaching to wider hardware regains
    // configurations a narrower previous attach dropped).
    std::vector<int> usable;
    for (int c : allConfigs_)
        if (c <= hw_clusters)
            usable.push_back(c);
    CSIM_ASSERT(!usable.empty());
    params_.configs = usable;
    exploreIpc_.assign(params_.configs.size(), 0.0);
    target_ = params_.configs.front();

    // Reset all per-run state: a controller is reusable across runs
    // (a sweep attaches the same object to a fresh processor), and a
    // second run must start from scratch rather than mid-phase or
    // permanently discontinued.
    intervalLength_ = params_.initialInterval;
    instsInInterval_ = 0;
    branchesInInterval_ = 0;
    memrefsInInterval_ = 0;
    intervalStartCycle_ = 0;
    startCycleValid_ = false;
    haveReference_ = false;
    stable_ = false;
    discontinued_ = false;
    numIpcVariations_ = 0.0;
    instability_ = 0.0;
    refBranches_ = 0;
    refMemrefs_ = 0;
    refIpc_ = 0.0;
    exploreIdx_ = 0;
    popularity_.clear();
    phaseChanges_ = 0;
    explorations_ = 0;
    failedExplorations_ = 0;
    chgBranch_ = 0;
    chgMem_ = 0;
    chgIpc_ = 0;

    CSIM_OBSERVE(onControllerAttach(name(), hw_clusters, target_));
}

void
IntervalExploreController::onCommit(const CommitEvent &ev)
{
    if (discontinued_)
        return;
    if (!startCycleValid_) {
        intervalStartCycle_ = ev.cycle;
        startCycleValid_ = true;
    }
    instsInInterval_++;
    if (isControlOp(ev.op))
        branchesInInterval_++;
    if (isMemOp(ev.op))
        memrefsInInterval_++;
    if (instsInInterval_ >= intervalLength_)
        endInterval(ev.cycle);
}

void
IntervalExploreController::endInterval(Cycle now)
{
    double ipc = now > intervalStartCycle_
        ? static_cast<double>(instsInInterval_) /
              static_cast<double>(now - intervalStartCycle_)
        : 0.0;
    std::uint64_t branches = branchesInInterval_;
    std::uint64_t memrefs = memrefsInInterval_;

    // Reset accumulation for the next interval.
    instsInInterval_ = 0;
    branchesInInterval_ = 0;
    memrefsInInterval_ = 0;
    startCycleValid_ = false;

    double metric_sig =
        static_cast<double>(intervalLength_) / params_.metricDivisor;
    auto differs = [&](std::uint64_t a, std::uint64_t b) {
        return metricDiffers(a, b, metric_sig);
    };

    if (!haveReference_) {
        // First interval of a phase: record the reference point and
        // begin exploration with the smallest configuration.
        haveReference_ = true;
        refBranches_ = branches;
        refMemrefs_ = memrefs;
        stable_ = false;
        exploreIdx_ = 0;
        target_ = params_.configs[0];
        explorations_++;
        CSIM_OBSERVE(onEvent(TraceEventKind::ExploreStart, target_,
                             intervalLength_));
        return;
    }

    bool branch_change = differs(branches, refBranches_);
    bool mem_change = differs(memrefs, refMemrefs_);

    if (!stable_) {
        // Exploration: the interval that just ended ran configuration
        // configs[exploreIdx_]. Branch/memref changes abort exploration.
        if (branch_change || mem_change) {
            if (branch_change)
                chgBranch_++;
            if (mem_change)
                chgMem_++;
            CSIM_OBSERVE(onEvent(TraceEventKind::ExploreAbort,
                                 static_cast<std::int64_t>(exploreIdx_)));
            phaseChange();
            return;
        }
        exploreIpc_[exploreIdx_] = ipc;
        exploreIdx_++;
        if (exploreIdx_ < params_.configs.size()) {
            target_ = params_.configs[exploreIdx_];
            CSIM_OBSERVE(
                onEvent(TraceEventKind::ExploreStep, target_, 0, ipc));
            return;
        }
        // Exploration complete: adopt the best configuration and use
        // its IPC as the stable-state reference.
        std::size_t best = 0;
        for (std::size_t i = 1; i < exploreIpc_.size(); i++)
            if (exploreIpc_[i] > exploreIpc_[best])
                best = i;
        if (exploreIpc_[best] <= 0.0) {
            // Every exploration interval measured zero IPC (degenerate
            // cycle window). Adopting refIpc_ = 0.0 would permanently
            // disable IPC-based phase detection -- the refIpc_ > 0.0
            // guard below never fires again -- so treat the whole
            // exploration as failed and restart it at the next
            // interval boundary instead of entering the stable state.
            failedExplorations_++;
            haveReference_ = false;
            CSIM_OBSERVE(onEvent(TraceEventKind::ExploreAbort, -1,
                                 failedExplorations_));
            return;
        }
        target_ = params_.configs[best];
        refIpc_ = exploreIpc_[best];
        stable_ = true;
        CSIM_OBSERVE(onEvent(TraceEventKind::ExploreAdopt, target_, 0,
                             refIpc_));
        return;
    }

    // Stable state.
    popularity_[target_] += intervalLength_;
    bool ipc_change = refIpc_ > 0.0 &&
        std::abs(ipc - refIpc_) / refIpc_ > params_.ipcTolerance;

    if (branch_change || mem_change ||
        (ipc_change && numIpcVariations_ > params_.thresh1)) {
        if (branch_change)
            chgBranch_++;
        if (mem_change)
            chgMem_++;
        if (!branch_change && !mem_change)
            chgIpc_++;
        phaseChange();
        return;
    }
    if (ipc_change) {
        numIpcVariations_ += 2.0;
    } else {
        numIpcVariations_ = std::max(-2.0, numIpcVariations_ - 0.125);
        instability_ = std::max(0.0, instability_ - 0.125);
    }
}

void
IntervalExploreController::phaseChange()
{
    phaseChanges_++;
    haveReference_ = false;
    stable_ = false;
    numIpcVariations_ = 0.0;
    instability_ += 2.0;
    CSIM_OBSERVE(onEvent(TraceEventKind::PhaseChange,
                         static_cast<std::int64_t>(phaseChanges_), 0,
                         instability_));
    if (instability_ > params_.thresh2) {
        intervalLength_ *= 2;
        instability_ = 0.0;
        CSIM_OBSERVE(onEvent(TraceEventKind::IntervalDouble, 0,
                             intervalLength_));
        if (intervalLength_ > params_.maxInterval) {
            // Give up on reconfiguration; settle on the most popular
            // configuration observed so far.
            discontinued_ = true;
            // Strict '>' over the ascending map: popularity ties go to
            // the smaller cluster count (deterministic, and the cheaper
            // choice in leakage when the evidence is equal).
            std::uint64_t best_use = 0;
            bool have_best = false;
            for (const auto &[cfg, use] : popularity_) {
                if (!have_best || use > best_use) {
                    best_use = use;
                    target_ = cfg;
                    have_best = true;
                }
            }
            // An empty ledger means no stable interval ever completed:
            // there is no evidence for any configuration, so prefer the
            // fewest clusters (the same tie-break as above, and the
            // cheapest choice in leakage).
            if (!have_best)
                target_ = params_.configs.front();
            CSIM_OBSERVE(onEvent(TraceEventKind::Discontinue, target_,
                                 intervalLength_));
        }
    }
}

} // namespace clustersim
