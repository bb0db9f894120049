/**
 * @file
 * Microarchitectural invariant checker (validation subsystem, layer 1).
 *
 * The simulator's headline numbers rest on cycle-level bookkeeping being
 * exactly right: per-cluster resource limits (Table 1), in-order ROB
 * commit, LSQ dummy-slot store handling (Section 5), interconnect hop
 * bounds, and reconfiguration that never leaks state across interval
 * boundaries. The InvariantChecker is the Observer (trace/observer.hh)
 * that checks them at the observation hooks.
 *
 * The hooks reach it only in a build configured with
 * -DCLUSTERSIM_OBSERVE=ON, where every simulation runs under a
 * fail-fast checker (DefaultObserverScope) unless its caller installed
 * an observer of its own. The checker itself is always compiled, so
 * unit tests can exercise the rules directly in any build flavour.
 */

#ifndef CLUSTERSIM_CHECK_INVARIANT_HH
#define CLUSTERSIM_CHECK_INVARIANT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/observer.hh"

namespace clustersim {

/** Static limits the invariants are checked against (from the config). */
struct CheckLimits {
    int numClusters = 16;    ///< hardware clusters
    /**
     * Smallest active partition whose register files cover the
     * architectural state (see minViableClusters()); running below it
     * is a guaranteed rename deadlock. 2 for Table 1's 30-register
     * clusters and the 32+32-register ISA.
     */
    int minActiveClusters = 2;
    int intIssueQueue = 15;  ///< per-cluster int IQ entries (Table 1)
    int fpIssueQueue = 15;   ///< per-cluster fp IQ entries
    int intRegs = 30;        ///< per-cluster int registers
    int fpRegs = 30;         ///< per-cluster fp registers
    int lsqPerCluster = 15;  ///< LSQ entries per cluster (Table 2)
    bool lsqDistributed = false;
    int robCapacity = 480;
    /** Largest hop count the topology reports between any two nodes. */
    int maxHops = 8;
    /**
     * Theoretical topology bound (8 for the 16-cluster ring, 6 for the
     * 4x4 grid); 0 when unknown for this node count. maxHops must not
     * exceed it.
     */
    int hardHopBound = 0;
};

/**
 * Observer asserting conservation invariants.
 *
 * In fail-fast mode (the default, used for every run of an observe
 * build) the first violation panics with the rule and detail. In
 * recording mode (used by the fuzz driver so failures can be shrunk)
 * violations are collected and the simulation continues.
 */
class InvariantChecker : public Observer
{
  public:
    struct Violation {
        std::string rule;   ///< short rule id, e.g. "iq-occupancy"
        std::string detail; ///< human-readable specifics
    };

    explicit InvariantChecker(bool fail_fast = true);

    /** Install the limits (onConfigure derives them from the config). */
    void configure(const CheckLimits &limits);

    // --- Observer hooks ---------------------------------------------------
    void onConfigure(const ProcessorConfig &cfg, int max_hops) override;
    void onCycleEnd(int active_clusters) override;
    void onIdleSkip(Cycle, int active) override { onCycleEnd(active); }
    void onClusterIq(int cluster, bool fp, int occupancy) override;
    void onClusterRegs(int cluster, bool fp, int used) override;
    void onRobAllocate(InstSeqNum seq, std::size_t size,
                       int capacity) override;
    void onRobRetire(InstSeqNum seq, std::size_t size) override;
    void onCommit(const DynInst &head, Cycle now) override;
    void onLsqAllocate(const LoadStoreQueue &q) override { checkLsq(q); }
    void onLsqResolve(const LoadStoreQueue &q) override { checkLsq(q); }
    void onLoadAccess(const LoadStoreQueue &lsq, InstSeqNum seq) override;
    void onLsqRelease(const LoadStoreQueue &lsq, InstSeqNum seq) override;
    void onTransfer(int src, int dst, int hops, int topology_max,
                    Cycle queue_delay) override;
    void onControllerAttach(const std::string &name, int hw_clusters,
                            int target) override;
    void onControllerTarget(const std::string &name, int target) override;
    void onReconfigApply(int from, int to, std::size_t rob_size,
                         std::size_t lsq_size, bool decentralized) override;
    /**
     * Re-bases the sequencing rules (dense ROB allocation, in-order
     * commit/retire, ordered LSQ release) on their next observation;
     * all conservation rules keep checking through the rewind.
     */
    void onStreamRebase() override;

    // --- results ----------------------------------------------------------
    bool ok() const { return violations_.empty(); }
    const std::vector<Violation> &violations() const { return violations_; }
    /** Total probe invocations (to verify the probes are live). */
    std::uint64_t probeCount() const { return probes_; }
    /** One-line-per-violation summary. */
    std::string summary() const;
    /** Forget all violations and sequencing state (not the limits). */
    void reset();

    /**
     * Allowed dynamic-controller cluster counts for hw hardware
     * clusters: {2, 4, 8, 16} clamped to hw (the paper's candidate
     * configurations; Figure 4 and Sections 4.3/4.4).
     */
    static std::vector<int> candidateSet(int hw_clusters);

  private:
    void fail(const char *rule, std::string detail);
    bool bump();
    /** The lsq-occupancy rule, after any LSQ mutation. */
    void checkLsq(const LoadStoreQueue &lsq);

    bool failFast_;
    CheckLimits lim_;
    bool configured_ = false;

    InstSeqNum lastAllocSeq_ = 0;
    InstSeqNum lastRetireSeq_ = 0;
    InstSeqNum lastCommitSeq_ = 0;
    InstSeqNum lastLsqRelease_ = 0;
    std::string lastCtrlName_;
    int lastCtrlTarget_ = -1;

    std::uint64_t probes_ = 0;
    std::vector<Violation> violations_;
    static constexpr std::size_t maxViolations = 100;
};

/**
 * Derive the limits from a processor configuration. max_hops is the
 * network's cached topology diameter; the theoretical bound (8 for the
 * paper's 16-cluster ring, 6 for its 4x4 grid) is filled in when the
 * configuration matches a paper machine.
 */
CheckLimits makeCheckLimits(const ProcessorConfig &cfg, int max_hops);

/**
 * The default observer of one simulated run: in an observe build with
 * no observer in scope, a fail-fast InvariantChecker for the scope's
 * lifetime. In a default build it does nothing.
 */
class DefaultObserverScope
{
  public:
    DefaultObserverScope();

    DefaultObserverScope(const DefaultObserverScope &) = delete;
    DefaultObserverScope &operator=(const DefaultObserverScope &) = delete;

  private:
    std::optional<InvariantChecker> checker_;
    std::optional<ObserverScope> scope_;
};

} // namespace clustersim

#endif // CLUSTERSIM_CHECK_INVARIANT_HH
