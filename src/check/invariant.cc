#include "check/invariant.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/dyn_inst.hh"
#include "core/params.hh"
#include "memory/lsq.hh"

namespace clustersim {

DefaultObserverScope::DefaultObserverScope()
{
    if (CLUSTERSIM_OBSERVE_ENABLED && !currentObserver()) {
        checker_.emplace(/*fail_fast=*/true);
        scope_.emplace(*checker_);
    }
}

InvariantChecker::InvariantChecker(bool fail_fast) : failFast_(fail_fast)
{
}

void
InvariantChecker::configure(const CheckLimits &limits)
{
    lim_ = limits;
    configured_ = true;
    reset();
    if (lim_.hardHopBound > 0 && lim_.maxHops > lim_.hardHopBound) {
        fail("hop-bound",
             detail::concat("topology max hops ", lim_.maxHops,
                            " exceeds theoretical bound ",
                            lim_.hardHopBound));
    }
}

void
InvariantChecker::onConfigure(const ProcessorConfig &cfg, int max_hops)
{
    configure(makeCheckLimits(cfg, max_hops));
}

void
InvariantChecker::reset()
{
    lastAllocSeq_ = 0;
    lastRetireSeq_ = 0;
    lastCommitSeq_ = 0;
    lastLsqRelease_ = 0;
    lastCtrlName_.clear();
    lastCtrlTarget_ = -1;
    probes_ = 0;
    violations_.clear();
}

void
InvariantChecker::onStreamRebase()
{
    bump();
    // Each sequencing rule treats a zero "last seen" as unbased and
    // accepts (then adopts) whatever comes next; violations and probe
    // counts are deliberately kept.
    lastAllocSeq_ = 0;
    lastRetireSeq_ = 0;
    lastCommitSeq_ = 0;
    lastLsqRelease_ = 0;
}

bool
InvariantChecker::bump()
{
    probes_++;
    // Once the cap is hit in recording mode, stop accumulating detail
    // strings; the run is already known bad.
    return violations_.size() < maxViolations;
}

void
InvariantChecker::fail(const char *rule, std::string detail)
{
    if (failFast_)
        CSIM_PANIC("invariant violated [", rule, "] ", detail);
    if (violations_.size() < maxViolations)
        violations_.push_back({rule, std::move(detail)});
}

std::string
InvariantChecker::summary() const
{
    std::string s;
    for (const Violation &v : violations_)
        s += "[" + v.rule + "] " + v.detail + "\n";
    return s;
}

CheckLimits
makeCheckLimits(const ProcessorConfig &cfg, int max_hops)
{
    CheckLimits lim;
    lim.numClusters = cfg.numClusters;
    lim.minActiveClusters = std::min(minViableClusters(cfg.cluster),
                                     cfg.numClusters);
    lim.intIssueQueue = cfg.cluster.intIssueQueue;
    lim.fpIssueQueue = cfg.cluster.fpIssueQueue;
    lim.intRegs = cfg.cluster.intRegs;
    lim.fpRegs = cfg.cluster.fpRegs;
    lim.lsqPerCluster = cfg.lsqPerCluster;
    lim.lsqDistributed = cfg.l1.decentralized;
    lim.robCapacity = cfg.robSize;
    lim.maxHops = max_hops;
    if (cfg.numClusters == maxClusters) {
        lim.hardHopBound =
            cfg.interconnect == InterconnectKind::Grid ? 6 : 8;
    } else {
        lim.hardHopBound = 0;
    }
    return lim;
}

std::vector<int>
InvariantChecker::candidateSet(int hw_clusters)
{
    std::vector<int> set;
    for (int c : {2, 4, 8, 16}) {
        int clamped = std::min(c, hw_clusters);
        if (std::find(set.begin(), set.end(), clamped) == set.end())
            set.push_back(clamped);
    }
    return set;
}

// ---------------------------------------------------------------------------
// Cluster resources
// ---------------------------------------------------------------------------

void
InvariantChecker::onClusterIq(int cluster, bool fp, int occupancy)
{
    if (!bump())
        return;
    int limit = fp ? lim_.fpIssueQueue : lim_.intIssueQueue;
    if (occupancy < 0 || occupancy > limit) {
        fail("iq-occupancy",
             detail::concat("cluster ", cluster, (fp ? " fp" : " int"),
                            " IQ occupancy ", occupancy,
                            " outside [0, ", limit, "]"));
    }
}

void
InvariantChecker::onClusterRegs(int cluster, bool fp, int used)
{
    if (!bump())
        return;
    int limit = fp ? lim_.fpRegs : lim_.intRegs;
    if (used < 0 || used > limit) {
        fail("reg-occupancy",
             detail::concat("cluster ", cluster, (fp ? " fp" : " int"),
                            " register occupancy ", used,
                            " outside [0, ", limit, "]"));
    }
}

// ---------------------------------------------------------------------------
// Reorder buffer
// ---------------------------------------------------------------------------

void
InvariantChecker::onRobAllocate(InstSeqNum seq, std::size_t size,
                                int capacity)
{
    if (!bump())
        return;
    if (lastAllocSeq_ != 0 && seq != lastAllocSeq_ + 1) {
        fail("rob-alloc-order",
             detail::concat("allocated seq ", seq, " after ",
                            lastAllocSeq_, " (must be dense)"));
    }
    lastAllocSeq_ = seq;
    if (static_cast<int>(size) > capacity) {
        fail("rob-capacity",
             detail::concat("ROB size ", size, " exceeds capacity ",
                            capacity));
    }
}

void
InvariantChecker::onRobRetire(InstSeqNum seq, std::size_t)
{
    if (!bump())
        return;
    if (lastRetireSeq_ != 0 && seq != lastRetireSeq_ + 1) {
        fail("rob-commit-order",
             detail::concat("retired seq ", seq, " after ",
                            lastRetireSeq_, " (commit must be in order)"));
    }
    lastRetireSeq_ = seq;
}

void
InvariantChecker::onCommit(const DynInst &head, Cycle now)
{
    if (!bump())
        return;
    InstSeqNum seq = head.seq;
    if (!head.completed) {
        fail("commit-incomplete",
             detail::concat("seq ", seq, " commits without completing"));
    } else if (head.completeCycle > now) {
        fail("commit-time",
             detail::concat("seq ", seq, " commits at cycle ", now,
                            " before completing at ",
                            head.completeCycle));
    }
    if (lastCommitSeq_ != 0 && seq != lastCommitSeq_ + 1) {
        fail("commit-order",
             detail::concat("committed seq ", seq, " after ",
                            lastCommitSeq_));
    }
    lastCommitSeq_ = seq;
}

// ---------------------------------------------------------------------------
// Load/store queue
// ---------------------------------------------------------------------------

void
InvariantChecker::checkLsq(const LoadStoreQueue &lsq)
{
    if (!bump())
        return;
    if (!lsq.distributed()) {
        int cap = lim_.lsqPerCluster * lim_.numClusters;
        if (static_cast<int>(lsq.size()) > cap) {
            fail("lsq-occupancy",
                 detail::concat("centralized LSQ holds ", lsq.size(),
                                " entries, capacity ", cap));
        }
        return;
    }
    for (int c = 0; c < lsq.numClusters(); c++) {
        int occ = lsq.occupancy(c);
        if (occ < 0 || occ > lsq.perCluster()) {
            fail("lsq-occupancy",
                 detail::concat("cluster ", c, " LSQ occupancy ", occ,
                                " outside [0, ", lsq.perCluster(), "]"));
        }
    }
}

void
InvariantChecker::onLoadAccess(const LoadStoreQueue &lsq, InstSeqNum seq)
{
    if (!bump())
        return;
    // Zyuban/Kogge dummy-slot rule (Section 5): a load must not be
    // issued to forwarding or the cache while any older store's address
    // is still uncomputed -- unresolved stores hold dummy slots exactly
    // so that younger loads wait.
    for (const LsqEntry &e : lsq.entries()) {
        if (e.seq >= seq)
            break;
        if (e.isStore && !e.addrValid) {
            fail("lsq-dummy-slot",
                 detail::concat("load seq ", seq,
                                " issued past unresolved store seq ",
                                e.seq));
        }
        if (e.isStore && e.addrValid && e.dummyClusters != 0) {
            fail("lsq-dummy-slot",
                 detail::concat("store seq ", e.seq,
                                " resolved but still holds ",
                                e.dummyClusters, " dummy slots"));
        }
    }
}

void
InvariantChecker::onLsqRelease(const LoadStoreQueue &lsq, InstSeqNum seq)
{
    if (bump()) {
        if (lastLsqRelease_ != 0 && seq <= lastLsqRelease_) {
            fail("lsq-release-order",
                 detail::concat("LSQ released seq ", seq, " after ",
                                lastLsqRelease_));
        }
        lastLsqRelease_ = seq;
    }
    checkLsq(lsq);
}

// ---------------------------------------------------------------------------
// Interconnect
// ---------------------------------------------------------------------------

void
InvariantChecker::onTransfer(int src, int dst, int hops, int topology_max,
                             Cycle)
{
    if (!bump())
        return;
    if (configured_ &&
        (src < 0 || src >= lim_.numClusters || dst < 0 ||
         dst >= lim_.numClusters)) {
        fail("transfer-endpoints",
             detail::concat("transfer ", src, " -> ", dst,
                            " outside [0, ", lim_.numClusters, ")"));
        return;
    }
    if (hops < 1 || hops > topology_max) {
        fail("hop-bound",
             detail::concat("transfer ", src, " -> ", dst, " took ",
                            hops, " hops, topology max ", topology_max));
    }
    if (configured_ && lim_.hardHopBound > 0 && hops > lim_.hardHopBound) {
        fail("hop-bound",
             detail::concat("transfer ", src, " -> ", dst, " took ",
                            hops, " hops, theoretical bound ",
                            lim_.hardHopBound));
    }
}

// ---------------------------------------------------------------------------
// Reconfiguration
// ---------------------------------------------------------------------------

void
InvariantChecker::onControllerAttach(const std::string &name,
                                     int hw_clusters, int target)
{
    if (!bump())
        return;
    lastCtrlName_.clear();
    lastCtrlTarget_ = -1;
    onControllerTarget(name, target);
    if (configured_ && hw_clusters != lim_.numClusters) {
        fail("controller-attach",
             detail::concat(name, " attached to ", hw_clusters,
                            " clusters, hardware has ",
                            lim_.numClusters));
    }
}

void
InvariantChecker::onControllerTarget(const std::string &name, int target)
{
    if (!bump())
        return;
    if (name == lastCtrlName_ && target == lastCtrlTarget_)
        return; // dedup: probes fire every cycle
    lastCtrlName_ = name;
    lastCtrlTarget_ = target;

    int hw = configured_ ? lim_.numClusters : maxClusters;
    if (target < 1 || target > hw) {
        fail("controller-target",
             detail::concat(name, " requests ", target,
                            " clusters, hardware range [1, ", hw, "]"));
        return;
    }
    // Candidate-set rule for the paper's dynamic schemes; fixed/static
    // controllers may pin any legal count.
    if (name.rfind("static-", 0) == 0)
        return;
    std::vector<int> allowed = candidateSet(hw);
    if (std::find(allowed.begin(), allowed.end(), target) ==
        allowed.end()) {
        fail("controller-candidates",
             detail::concat(name, " requests ", target,
                            " clusters, not in the {2,4,8,16} candidate"
                            " set clamped to ", hw, " clusters"));
    }
}

void
InvariantChecker::onReconfigApply(int from, int to, std::size_t rob_size,
                                  std::size_t lsq_size, bool decentralized)
{
    if (!bump())
        return;
    int hw = configured_ ? lim_.numClusters : maxClusters;
    int lo = configured_ ? lim_.minActiveClusters : 1;
    if (to < lo || to > hw) {
        fail("reconfig-range",
             detail::concat("reconfigure ", from, " -> ", to,
                            " outside [", lo, ", ", hw, "]"));
    }
    if (decentralized && (rob_size != 0 || lsq_size != 0)) {
        // The decentralized cache remaps banks: switching without a
        // full drain would leave in-flight accesses pointing at stale
        // banks (Section 5).
        fail("reconfig-drain",
             detail::concat("decentralized reconfigure ", from, " -> ",
                            to, " with ", rob_size, " ROB / ", lsq_size,
                            " LSQ entries in flight"));
    }
}

void
InvariantChecker::onCycleEnd(int active_clusters)
{
    if (!bump())
        return;
    int hw = configured_ ? lim_.numClusters : maxClusters;
    int lo = configured_ ? lim_.minActiveClusters : 1;
    if (active_clusters < lo || active_clusters > hw) {
        // Below minActiveClusters the partition cannot hold the
        // architectural registers: rename deadlock, not a config.
        fail("active-range",
             detail::concat("active cluster count ", active_clusters,
                            " outside [", lo, ", ", hw, "]"));
    }
}

} // namespace clustersim
