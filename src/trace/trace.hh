/**
 * @file
 * Zero-cost tracing layer (observability subsystem, part 1).
 *
 * A TraceSink is a ring-buffered binary event recorder that the core
 * components (Processor, Cluster, ReorderBuffer, LoadStoreQueue,
 * Network, and the reconfiguration controllers) feed through the
 * CSIM_TRACE hook macro: discrete reconfiguration events (target
 * change, exploration start/abort/adopt, interval doubling,
 * discontinue, finegrain table flush/decide/conflict), periodic
 * pipeline occupancy samples (per-cluster IQ/regfile, ROB, LSQ, link
 * utilization), and run milestones. perfettoJson() exports the ring as
 * Chrome trace-event JSON loadable in ui.perfetto.dev or
 * chrome://tracing; the embedded TimeSeriesRecorder (timeseries.hh)
 * turns the commit stream into per-interval metric rows.
 *
 * Hook sites are wrapped in CSIM_TRACE, which compiles to nothing
 * unless the build is configured with -DCLUSTERSIM_TRACE=ON (which
 * defines CLUSTERSIM_TRACE_ENABLED=1) -- the default build carries no
 * tracing code in the hot paths at all, keeping the golden grid
 * bit-exact and e2ebench flat. In a trace build, hooks route to the
 * thread-current sink installed with TraceScope; with no scope
 * installed they cost one thread-local load. Tracing is observation
 * only: installing a sink never changes simulation results.
 *
 * The sink itself is always compiled, so unit tests and cold-path
 * callers (tools/trace, runSimulation milestones) work in any build
 * flavour.
 */

#ifndef CLUSTERSIM_TRACE_TRACE_HH
#define CLUSTERSIM_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/timeseries.hh"
#include "workload/isa.hh"

namespace clustersim {

/** Discriminator of one trace event. */
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

/** Number of distinct event kinds. */
inline constexpr int numTraceEventKinds =
    static_cast<int>(TraceEventKind::ActiveSample) + 1;

/** Short stable name of a kind (event catalog in docs/OBSERVABILITY.md). */
const char *traceEventName(TraceEventKind kind);

/** One binary trace record (32 bytes). Field meaning is per-kind. */
struct TraceEvent {
    Cycle cycle = 0;
    TraceEventKind kind = TraceEventKind::ControllerAttach;
    std::uint16_t unit = 0;    ///< cluster / component index
    std::int32_t arg = 0;      ///< primary integer payload
    std::uint64_t aux = 0;     ///< secondary payload (PC, length, ...)
    double val = 0.0;          ///< floating payload (IPC, rate, ...)
};

/**
 * Ring-buffered event sink plus occupancy caches and an embedded
 * per-interval TimeSeriesRecorder. When the ring wraps, the oldest
 * events are overwritten and dropped() counts the loss -- recording
 * never allocates after construction.
 */
class TraceSink
{
  public:
    /**
     * @param ring_capacity  Events retained; older ones are dropped.
     * @param sample_period  Cycles between occupancy counter samples.
     */
    explicit TraceSink(std::size_t ring_capacity = 1 << 16,
                       Cycle sample_period = 256);

    // --- hot hooks (behind CSIM_TRACE) --------------------------------
    /** Once per simulated cycle; also drives periodic sampling. */
    void
    beginCycle(Cycle cycle, int active_clusters)
    {
        cycle_ = cycle;
        activeClusters_ = active_clusters;
        if (cycle >= nextSample_)
            emitSamples();
    }

    /** Cluster IQ occupancy after an allocate/release. */
    void
    iq(int cluster, bool fp, int occupancy)
    {
        if (cluster >= 0 && cluster < maxUnits) {
            iqOcc_[fp ? 1 : 0][cluster] =
                static_cast<std::int32_t>(occupancy);
            noteUnit(cluster);
        }
    }

    /** Cluster register-file occupancy after an allocate/release. */
    void
    regs(int cluster, bool fp, int used)
    {
        if (cluster >= 0 && cluster < maxUnits) {
            regOcc_[fp ? 1 : 0][cluster] =
                static_cast<std::int32_t>(used);
            noteUnit(cluster);
        }
    }

    /** ROB occupancy after an allocate/retire. */
    void rob(std::size_t size) { robOcc_ = size; }

    /** LSQ occupancy after an allocate/release. */
    void lsq(std::size_t size) { lsqOcc_ = size; }

    /** One cross-cluster transfer scheduled on the interconnect. */
    void
    transfer(int hops, Cycle queue_delay)
    {
        xferCount_++;
        xferHops_ += static_cast<std::uint64_t>(hops);
        xferDelay_ += queue_delay;
    }

    /** One committed instruction (feeds the time series). */
    void
    commit(OpClass op, bool distant, Cycle cycle)
    {
        series_.onCommit(op, distant, cycle, activeClusters_);
    }

    /** Record one discrete event at the current cycle. */
    void event(TraceEventKind kind, int unit = 0,
               std::int64_t arg = 0, std::uint64_t aux = 0,
               double val = 0.0);

    // --- configuration ------------------------------------------------
    /** Enable per-interval time-series rows (instruction interval). */
    void enableTimeSeries(std::uint64_t interval_insts);

    TimeSeriesRecorder &timeSeries() { return series_; }
    const TimeSeriesRecorder &timeSeries() const { return series_; }

    // --- inspection (cold) --------------------------------------------
    Cycle cycle() const { return cycle_; }
    std::size_t capacity() const { return ring_.size(); }
    /** Events recorded over the sink's lifetime. */
    std::uint64_t recorded() const { return count_; }
    /** Events lost to ring wrap-around. */
    std::uint64_t
    dropped() const
    {
        return count_ > ring_.size() ? count_ - ring_.size() : 0;
    }
    /** Retained events, oldest first. */
    std::vector<TraceEvent> eventsInOrder() const;

    /** Forget all events, samples, and series rows. */
    void reset();

  private:
    /** Occupancy caches cover the paper's widest machine. */
    static constexpr int maxUnits = 16;

    void
    noteUnit(int cluster)
    {
        if (cluster >= unitsSeen_)
            unitsSeen_ = cluster + 1;
    }

    void record(TraceEventKind kind, std::uint16_t unit,
                std::int32_t arg, std::uint64_t aux, double val);
    void emitSamples();

    std::vector<TraceEvent> ring_;
    std::uint64_t count_ = 0;

    Cycle cycle_ = 0;
    int activeClusters_ = 0;

    Cycle samplePeriod_;
    Cycle nextSample_ = 0;

    // occupancy caches, written by the hot hooks, read at sample time
    std::int32_t iqOcc_[2][maxUnits] = {};
    std::int32_t regOcc_[2][maxUnits] = {};
    std::size_t robOcc_ = 0;
    std::size_t lsqOcc_ = 0;
    int unitsSeen_ = 0;

    // interconnect accumulators, reset at every sample
    std::uint64_t xferCount_ = 0;
    std::uint64_t xferHops_ = 0;
    Cycle xferDelay_ = 0;

    TimeSeriesRecorder series_;
};

/**
 * Export the sink's retained events as Chrome trace-event JSON
 * ({"traceEvents": [...]}) loadable by ui.perfetto.dev. Occupancy
 * samples become counter ("C") tracks; discrete events become instant
 * ("i") events with their payload in args.
 */
std::string perfettoJson(const TraceSink &sink);

/** The thread-current sink, or nullptr when none is installed. */
TraceSink *currentTraceSink();

/**
 * RAII installation of a sink as the thread-current trace target.
 * Scopes nest; the innermost wins and the previous sink is restored on
 * destruction (mirrors CheckScope in check/invariant.hh).
 */
class TraceScope
{
  public:
    explicit TraceScope(TraceSink &sink);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    TraceSink *prev_;
};

} // namespace clustersim

#ifndef CLUSTERSIM_TRACE_ENABLED
#define CLUSTERSIM_TRACE_ENABLED 0
#endif

/**
 * Hook macro: forwards one TraceSink member call to the thread-current
 * sink. Compiled out entirely unless the build defines
 * CLUSTERSIM_TRACE_ENABLED=1 (cmake -DCLUSTERSIM_TRACE=ON). This is
 * the only approved way to touch the trace sink from hot-path files
 * (simlint rule T001).
 */
#if CLUSTERSIM_TRACE_ENABLED
#define CSIM_TRACE(...)                                                     \
    do {                                                                    \
        if (::clustersim::TraceSink *csim_trc_ =                            \
                ::clustersim::currentTraceSink())                           \
            csim_trc_->__VA_ARGS__;                                         \
    } while (0)
#else
#define CSIM_TRACE(...)                                                     \
    do {                                                                    \
    } while (0)
#endif

#endif // CLUSTERSIM_TRACE_TRACE_HH
