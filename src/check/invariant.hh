/**
 * @file
 * Microarchitectural invariant checker (validation subsystem, layer 1).
 *
 * The simulator's headline numbers rest on cycle-level bookkeeping being
 * exactly right: per-cluster resource limits (Table 1), in-order ROB
 * commit, LSQ dummy-slot store handling (Section 5), interconnect hop
 * bounds, and reconfiguration that never leaks state across interval
 * boundaries. The InvariantChecker is a probe sink that the core
 * components (Processor, Cluster, ReorderBuffer, LoadStoreQueue,
 * Network, and the reconfiguration controllers) invoke at commit /
 * reconfigure / transfer boundaries.
 *
 * Probe call sites are wrapped in CSIM_CHECK_PROBE, which compiles to
 * nothing unless the build is configured with -DCLUSTERSIM_CHECK=ON
 * (which defines CLUSTERSIM_CHECK_ENABLED=1). In a check build, probes
 * are routed to the thread-current checker installed with CheckScope;
 * with no scope installed they cost one thread-local load.
 *
 * The checker itself is always compiled, so unit tests can exercise the
 * rules directly in any build flavour.
 */

#ifndef CLUSTERSIM_CHECK_INVARIANT_HH
#define CLUSTERSIM_CHECK_INVARIANT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace clustersim {

class LoadStoreQueue;
struct ProcessorConfig;

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
 * Probe sink asserting conservation invariants.
 *
 * In fail-fast mode (the default, used by runSimulation in check
 * builds) the first violation panics with the rule and detail. In
 * recording mode (used by the fuzz driver so failures can be shrunk)
 * violations are collected and the simulation continues.
 */
class InvariantChecker
{
  public:
    struct Violation {
        std::string rule;   ///< short rule id, e.g. "iq-occupancy"
        std::string detail; ///< human-readable specifics
    };

    explicit InvariantChecker(bool fail_fast = true);

    /** Install the limits; called by the Processor constructor probe. */
    void configure(const CheckLimits &limits);

    // --- cluster resources (Cluster probes) -------------------------------
    /** IQ occupancy after an allocate/release. */
    void onClusterIq(int cluster, bool fp, int occupancy);
    /** Register-file occupancy after an allocate/release. */
    void onClusterRegs(int cluster, bool fp, int used);

    // --- reorder buffer (ReorderBuffer + Processor probes) ----------------
    void onRobAllocate(InstSeqNum seq, std::size_t size, int capacity);
    void onRobRetire(InstSeqNum seq);
    /** Commit-stage view of the retiring head. */
    void onCommit(InstSeqNum seq, bool completed, Cycle complete_cycle,
                  Cycle now);

    // --- load/store queue (LoadStoreQueue probes) -------------------------
    /** Occupancy conservation after any LSQ mutation. */
    void onLsqMutate(const LoadStoreQueue &lsq);
    /** A load with seq is being issued to forward/cache access. */
    void onLoadAccess(const LoadStoreQueue &lsq, InstSeqNum seq);
    void onLsqRelease(InstSeqNum seq);

    // --- interconnect (Network probe) -------------------------------------
    void onTransfer(int src, int dst, int hops, int topology_max);

    // --- reconfiguration (controller + Processor probes) ------------------
    /** A controller finished (re)attaching. */
    void onControllerAttach(const std::string &name, int hw_clusters,
                            int target);
    /** A controller exposes a desired cluster count. */
    void onControllerTarget(const std::string &name, int target);
    /** The processor switches active cluster counts. */
    void onReconfigApply(int from, int to, std::size_t rob_size,
                         std::size_t lsq_size, bool decentralized);
    /** Once per cycle: the active cluster count in force. */
    void onCycle(int active_clusters);

    // --- checkpoint (Processor probe) -------------------------------------
    /**
     * The instruction stream this sink observes is about to rewind: a
     * snapshot restore moved the processor back in sequence space.
     * Re-bases the sequencing rules (dense ROB allocation, in-order
     * commit/retire, ordered LSQ release) on their next observation;
     * all conservation rules keep checking through the switch.
     */
    void onStreamRebase();

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

/** The thread-current checker, or nullptr when none is installed. */
InvariantChecker *currentChecker();

/**
 * RAII installation of a checker as the thread-current probe sink.
 * Scopes nest; the innermost wins and the previous sink is restored on
 * destruction. Install exactly one scope per simulated processor run:
 * the sequencing rules (dense ROB allocation, in-order commit) assume a
 * single instruction stream per sink.
 */
class CheckScope
{
  public:
    explicit CheckScope(InvariantChecker &checker);
    ~CheckScope();

    CheckScope(const CheckScope &) = delete;
    CheckScope &operator=(const CheckScope &) = delete;

  private:
    InvariantChecker *prev_;
};

} // namespace clustersim

#ifndef CLUSTERSIM_CHECK_ENABLED
#define CLUSTERSIM_CHECK_ENABLED 0
#endif

/**
 * Probe macro: forwards one InvariantChecker member call to the
 * thread-current checker. Compiled out entirely unless the build
 * defines CLUSTERSIM_CHECK_ENABLED=1 (cmake -DCLUSTERSIM_CHECK=ON).
 */
#if CLUSTERSIM_CHECK_ENABLED
#define CSIM_CHECK_PROBE(...)                                               \
    do {                                                                    \
        if (::clustersim::InvariantChecker *csim_chk_ =                     \
                ::clustersim::currentChecker())                             \
            csim_chk_->__VA_ARGS__;                                         \
    } while (0)
#else
#define CSIM_CHECK_PROBE(...)                                               \
    do {                                                                    \
    } while (0)
#endif

#endif // CLUSTERSIM_CHECK_INVARIANT_HH
