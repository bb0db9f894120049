/**
 * @file
 * Zero-cost tracing layer (observability subsystem, part 1).
 *
 * A TraceSink is the Observer (trace/observer.hh) that records the
 * observation hooks into a ring-buffered binary event log: discrete
 * reconfiguration events (TraceEventKind), periodic pipeline occupancy
 * samples (per-cluster IQ/regfile, ROB, LSQ, link utilization), and run
 * milestones. perfettoJson() exports the ring as Chrome trace-event
 * JSON loadable in ui.perfetto.dev or chrome://tracing; the embedded
 * TimeSeriesRecorder (timeseries.hh) turns the commit stream into
 * per-interval metric rows.
 *
 * The pipeline hooks reach a sink only in a build configured with
 * -DCLUSTERSIM_OBSERVE=ON; the measure-window milestones reach it in
 * every build. Install a sink with ObserverScope. Installing one never
 * changes simulation results.
 */

#ifndef CLUSTERSIM_TRACE_TRACE_HH
#define CLUSTERSIM_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/observer.hh"
#include "trace/timeseries.hh"

namespace clustersim {

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
class TraceSink : public Observer
{
  public:
    /**
     * @param ring_capacity  Events retained; older ones are dropped.
     * @param sample_period  Cycles between occupancy counter samples.
     */
    explicit TraceSink(std::size_t ring_capacity = 1 << 16,
                       Cycle sample_period = 256);

    // --- Observer hooks -----------------------------------------------
    /** Also drives periodic sampling. */
    void
    onCycleBegin(Cycle cycle, int active_clusters) override
    {
        cycle_ = cycle;
        activeClusters_ = active_clusters;
        if (cycle >= nextSample_)
            emitSamples();
    }
    void onIdleSkip(Cycle c, int active) override { onCycleBegin(c, active); }
    void
    onClusterIq(int cluster, bool fp, int occupancy) override
    {
        noteUnit(iqOcc_, cluster, fp, occupancy);
    }
    void
    onClusterRegs(int cluster, bool fp, int used) override
    {
        noteUnit(regOcc_, cluster, fp, used);
    }
    void onRobAllocate(InstSeqNum, std::size_t n, int) override { robOcc_ = n; }
    void onRobRetire(InstSeqNum, std::size_t n) override { robOcc_ = n; }
    /** Feeds the time series. */
    void onCommit(const DynInst &head, Cycle now) override;
    void onLsqAllocate(const LoadStoreQueue &lsq) override;
    void onLsqRelease(const LoadStoreQueue &lsq, InstSeqNum) override;
    void
    onTransfer(int, int, int hops, int, Cycle queue_delay) override
    {
        xferCount_++;
        xferHops_ += static_cast<std::uint64_t>(hops);
        xferDelay_ += queue_delay;
    }
    void
    onReconfigApply(int from, int to, std::size_t, std::size_t,
                    bool) override
    {
        onEvent(TraceEventKind::ReconfigApply, from,
                static_cast<std::uint64_t>(to), 0.0);
    }
    void
    onEvent(TraceEventKind kind, std::int64_t arg, std::uint64_t aux,
            double val) override
    {
        record(kind, 0, static_cast<std::int32_t>(arg), aux, val);
    }
    /** Drops the warmup's time-series rows. */
    void onMeasureStart(Cycle cycle) override;
    /** Hands the window's time-series rows to res. */
    void onMeasureEnd(Cycle cycle, SimResult &res) override;

    // --- configuration ------------------------------------------------
    /** Enable per-interval time-series rows (instruction interval). */
    void enableTimeSeries(std::uint64_t interval_insts);


    // --- inspection (cold) --------------------------------------------
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

    /** Cache one cluster's int or fp occupancy for the next sample. */
    void
    noteUnit(std::int32_t (&occ)[2][maxUnits], int cluster, bool fp,
             int value)
    {
        if (cluster < 0 || cluster >= maxUnits)
            return;
        occ[fp ? 1 : 0][cluster] = static_cast<std::int32_t>(value);
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

} // namespace clustersim

#endif // CLUSTERSIM_TRACE_TRACE_HH
