#include "reconfig/finegrain.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/observer.hh"

namespace clustersim {

FinegrainController::FinegrainController(const FinegrainParams &params)
    : params_(params), origBig_(params.bigConfig),
      origSmall_(params.smallConfig), table_(params.tableEntries),
      tracker_(params.ilpWindow), target_(params.bigConfig)
{
    CSIM_ASSERT((params_.tableEntries &
                 (params_.tableEntries - 1)) == 0,
                "reconfiguration table size must be a power of two");
    CSIM_ASSERT(params_.branchStride >= 1 && params_.samplesNeeded >= 1);
}

void
FinegrainController::attach(int hw_clusters, int initial)
{
    ReconfigController::attach(hw_clusters, initial);
    // Clamp from the constructor-time values so re-attaching to wider
    // hardware regains the original configurations.
    params_.bigConfig = std::min(origBig_, hw_clusters);
    params_.smallConfig = std::min(origSmall_, hw_clusters);
    target_ = params_.bigConfig;

    // Reset all per-run state (learned table, ILP window, counters) so
    // a reused controller's second run reproduces a fresh controller's
    // decisions exactly.
    for (auto &e : table_)
        e = TableEntry{};
    tracker_.reset();
    branchCounter_ = 0;
    sinceFlush_ = 0;
    reconfigPoints_ = 0;
    tableFlushes_ = 0;
    tableConflicts_ = 0;

    CSIM_OBSERVE(onControllerAttach(name(), hw_clusters, target_));
}

FinegrainController::TableEntry &
FinegrainController::entryFor(Addr pc)
{
    return table_[(pc >> 2) & (table_.size() - 1)];
}

bool
FinegrainController::isReconfigPoint(const CommitEvent &ev)
{
    if (params_.subroutineMode) {
        return ev.op == OpClass::Call || ev.op == OpClass::Return;
    }
    if (!isControlOp(ev.op))
        return false;
    branchCounter_ = (branchCounter_ + 1) % params_.branchStride;
    return branchCounter_ == 0;
}

void
FinegrainController::onCommit(const CommitEvent &ev)
{
    // Periodic table flush so stale advice ages out.
    if (++sinceFlush_ >= params_.flushPeriod) {
        sinceFlush_ = 0;
        tableFlushes_++;
        for (auto &e : table_)
            e = TableEntry{};
        CSIM_OBSERVE(onEvent(TraceEventKind::TableFlush,
                             static_cast<std::int64_t>(tableFlushes_)));
    }

    bool point = isReconfigPoint(ev);
    if (point) {
        reconfigPoints_++;
        TableEntry &e = entryFor(ev.pc);
        int prev = target_;
        if (e.valid && e.tag == ev.pc && e.decided) {
            target_ = e.advice;
        } else {
            // Unknown branch: run wide so its distant ILP is visible.
            target_ = params_.bigConfig;
        }
        if (target_ != prev)
            CSIM_OBSERVE(
                onEvent(TraceEventKind::TargetChange, target_, ev.pc));
    }

    // Window bookkeeping; when a sampled branch leaves the window we
    // learn the distant-ILP degree of the 360 instructions after it.
    DistantIlpTracker::Evicted old = tracker_.push(ev.pc, ev.distant,
                                                   point);
    if (old.valid && old.marked) {
        TableEntry &e = entryFor(old.pc);
        if (e.valid && e.tag != old.pc) {
            // Aliasing: a different branch already owns this slot.
            // Never evict the resident entry -- two hot branches
            // sharing a slot would otherwise ping-pong and neither
            // could ever accumulate samplesNeeded. The loser's sample
            // is dropped; the slot frees up at the next table flush.
            tableConflicts_++;
            CSIM_OBSERVE(onEvent(TraceEventKind::TableConflict,
                                 static_cast<std::int64_t>(e.samples),
                                 old.pc));
            return;
        }
        if (!e.valid) {
            e = TableEntry{};
            e.valid = true;
            e.tag = old.pc;
        }
        if (!e.decided) {
            e.samples++;
            e.distantSum += old.distantFollowing;
            if (e.samples >= params_.samplesNeeded) {
                double avg = static_cast<double>(e.distantSum) /
                             static_cast<double>(e.samples);
                e.advice = avg > params_.distantThreshold
                    ? params_.bigConfig
                    : params_.smallConfig;
                e.decided = true;
                CSIM_OBSERVE(onEvent(TraceEventKind::TableDecide,
                                     e.advice, old.pc, avg));
            }
        }
    }
}

} // namespace clustersim
