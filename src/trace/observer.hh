/**
 * @file
 * The one observation hook of the simulator (observability subsystem).
 *
 * The core components (Processor, Cluster, ReorderBuffer,
 * LoadStoreQueue, Network) and the reconfiguration controllers report
 * what they do to an Observer, whose every hook is a no-op by default.
 * The InvariantChecker (check/invariant.hh) and the TraceSink
 * (trace/trace.hh) each override the hooks they use. The hooks compile
 * to nothing unless the build is configured with -DCLUSTERSIM_OBSERVE=ON
 * (CSIM_OBSERVE below); the measure-window milestones, called from the
 * simulation driver's cold code, reach the observer in every build.
 * Observation never changes simulation results.
 */

#ifndef CLUSTERSIM_TRACE_OBSERVER_HH
#define CLUSTERSIM_TRACE_OBSERVER_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace clustersim {

struct DynInst;
class LoadStoreQueue;
struct ProcessorConfig;
struct SimResult;

/** Discriminator of one discrete event (catalog in docs/OBSERVABILITY.md). */
enum class TraceEventKind : std::uint16_t {
    // --- reconfiguration timeline (controllers, processor) -----------
    ControllerAttach,  ///< arg = initial target, aux = hw clusters
    TargetChange,      ///< arg = new target, aux = triggering PC
    ExploreStart,      ///< arg = first config, aux = interval length
    ExploreStep,       ///< arg = next config, val = measured IPC
    ExploreAbort,      ///< arg = configs done (-1: zero-IPC failure)
    ExploreAdopt,      ///< arg = adopted config, val = reference IPC
    IntervalDouble,    ///< aux = new interval length
    PhaseChange,       ///< arg = phase count, val = instability
    Discontinue,       ///< arg = final config, aux = interval length
    IlpDecide,         ///< arg = chosen config, val = distant per-mille
    TableFlush,        ///< arg = flush count
    TableDecide,       ///< arg = advice, aux = branch PC, val = avg
    TableConflict,     ///< arg = resident samples, aux = evicted PC
    ReconfigApply,     ///< arg = old active count, aux = new count
    ReconfigPending,   ///< arg = current count, aux = pending target
    CacheFlush,        ///< arg = dirty lines written back
    // --- run milestones (simulation driver) ---------------------------
    MeasureStart,      ///< aux = cycle measurement began
    MeasureEnd,        ///< aux = cycle measurement ended
    // --- periodic occupancy samples (counter tracks) ------------------
    IqSample,          ///< unit = cluster, arg = int occ, aux = fp occ
    RegSample,         ///< unit = cluster, arg = int used, aux = fp used
    RobSample,         ///< arg = occupied entries
    LsqSample,         ///< arg = occupied entries
    LinkSample,        ///< arg = transfers, aux = hops, val = avg delay
    ActiveSample,      ///< arg = active cluster count
};

// The hooks name their parameters for the reader; the no-op defaults
// use none of them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wunused-parameter"

/**
 * Receiver of every observation hook. Install one observer per
 * simulated processor run: the checker's sequencing rules (dense ROB
 * allocation, in-order commit) assume one instruction stream.
 */
class Observer
{
  public:
    virtual ~Observer() = default;

    // --- processor ------------------------------------------------------
    /** A processor was built; max_hops is its network's diameter. */
    virtual void onConfigure(const ProcessorConfig &cfg, int max_hops) {}
    /** A cycle begins, before any pipeline stage runs. */
    virtual void onCycleBegin(Cycle cycle, int active_clusters) {}
    /** A cycle ended with active_clusters in force. */
    virtual void onCycleEnd(int active_clusters) {}
    /** Idle cycles up to cycle were skipped: one ends, the next begins. */
    virtual void onIdleSkip(Cycle cycle, int active_clusters) {}
    /** The ROB head commits at cycle now. */
    virtual void onCommit(const DynInst &head, Cycle now) {}
    /** A snapshot restore is about to rewind the instruction stream. */
    virtual void onStreamRebase() {}

    // --- cluster resources, after an allocate or release ----------------
    virtual void onClusterIq(int cluster, bool fp, int occupancy) {}
    virtual void onClusterRegs(int cluster, bool fp, int used) {}

    // --- reorder buffer: seq enters or leaves, size entries remain -------
    virtual void onRobAllocate(InstSeqNum seq, std::size_t size,
                               int capacity) {}
    virtual void onRobRetire(InstSeqNum seq, std::size_t size) {}

    // --- load/store queue -----------------------------------------------
    virtual void onLsqAllocate(const LoadStoreQueue &lsq) {}
    /** An address resolved (a store frees its dummy slots). */
    virtual void onLsqResolve(const LoadStoreQueue &lsq) {}
    /** The load seq issues to forwarding or the cache. */
    virtual void onLoadAccess(const LoadStoreQueue &lsq, InstSeqNum seq) {}
    /** The head entry seq was released at commit. */
    virtual void onLsqRelease(const LoadStoreQueue &lsq, InstSeqNum seq) {}

    // --- interconnect -----------------------------------------------------
    /**
     * One transfer of hops links on a topology of diameter topology_max,
     * arriving queue_delay cycles after its value was ready.
     */
    virtual void onTransfer(int src, int dst, int hops, int topology_max,
                            Cycle queue_delay) {}

    // --- reconfiguration --------------------------------------------------
    /** A controller finished (re)attaching. */
    virtual void onControllerAttach(const std::string &name,
                                    int hw_clusters, int target) {}
    /** Every reconfiguration check: the controller's desired count. */
    virtual void onControllerTarget(const std::string &name, int target) {}
    /** The active count switches, with rob_size/lsq_size in flight. */
    virtual void onReconfigApply(int from, int to, std::size_t rob_size,
                                 std::size_t lsq_size, bool decentralized) {}
    /** A controller decision or reconfiguration step (TraceEventKind). */
    virtual void onEvent(TraceEventKind kind, std::int64_t arg = 0,
                         std::uint64_t aux = 0, double val = 0.0) {}

    // --- measure window (simulation driver; every build) -----------------
    virtual void onMeasureStart(Cycle cycle) {}
    /** res holds the window's metrics; an observer may add its own. */
    virtual void onMeasureEnd(Cycle cycle, SimResult &res) {}
};

#pragma GCC diagnostic pop

/** The thread-current observer, or nullptr when none is installed. */
Observer *currentObserver();

/**
 * RAII installation of the thread-current observer. Scopes nest; the
 * innermost wins and the previous observer is restored on destruction.
 */
class ObserverScope
{
  public:
    explicit ObserverScope(Observer &observer);
    ~ObserverScope();

    ObserverScope(const ObserverScope &) = delete;
    ObserverScope &operator=(const ObserverScope &) = delete;

  private:
    Observer *prev_;
};

} // namespace clustersim

#ifndef CLUSTERSIM_OBSERVE_ENABLED
#define CLUSTERSIM_OBSERVE_ENABLED 0
#endif

/**
 * Hook macro: forwards one Observer member call to the thread-current
 * observer. Unless the build defines CLUSTERSIM_OBSERVE_ENABLED=1, the
 * call sits in a discarded statement: type-checked, but no code is
 * emitted and no argument is evaluated. The only approved way to reach
 * an observer from hot-path files (simlint rule T001).
 */
#if CLUSTERSIM_OBSERVE_ENABLED
#define CSIM_OBSERVE(...)                                                   \
    do {                                                                    \
        if (::clustersim::Observer *csim_obs_ =                             \
                ::clustersim::currentObserver())                            \
            csim_obs_->__VA_ARGS__;                                         \
    } while (0)
#else
#define CSIM_OBSERVE(...)                                                   \
    do {                                                                    \
        if constexpr (false)                                                \
            ::clustersim::currentObserver()->__VA_ARGS__;                   \
    } while (0)
#endif

#endif // CLUSTERSIM_TRACE_OBSERVER_HH
